#ifndef IRONSAFE_COMMON_RETRY_H_
#define IRONSAFE_COMMON_RETRY_H_

#include <cstdint>
#include <functional>

#include "common/result.h"
#include "common/status.h"

namespace ironsafe {

/// Bounded exponential backoff for transient faults (dropped channel
/// frames, failed ecalls, stale RPMB counters, bit-flipped reads).
///
/// Backoff is *simulated* time: the helper never sleeps. Before each
/// re-attempt it reports the backoff through `on_backoff`, and call sites
/// wire that to the deterministic cost account (`sim::CostModel::
/// ChargeFixed`) plus observability — see obs::ObservedRetryPolicy for
/// the canonical wiring. The first attempt is hook-free, so a successful
/// operation through RetryWithBackoff is bit-identical in cost and trace
/// to the bare call.
struct RetryPolicy {
  int max_attempts = 3;
  uint64_t initial_backoff_ns = 200'000;  ///< simulated ns before attempt 2
  uint64_t max_backoff_ns = 10'000'000;   ///< backoff growth cap
  uint32_t backoff_multiplier = 2;

  /// Called before re-attempt `next_attempt` (2-based) with the simulated
  /// backoff and the failure that caused the retry. Null = pure logic.
  std::function<void(int next_attempt, uint64_t backoff_ns,
                     const Status& failure)>
      on_backoff;

  /// Which failures are worth retrying. Null retries every non-OK status;
  /// a non-retryable failure is returned to the caller immediately.
  std::function<bool(const Status&)> retryable;
};

/// The simulated backoff charged before `attempt` (2-based):
/// initial * multiplier^(attempt-2), capped at max_backoff_ns.
uint64_t BackoffForAttempt(const RetryPolicy& policy, int attempt);

/// True only for admission/quota rejections (kResourceExhausted): the
/// failure that resolves by waiting for the same path to free capacity.
inline bool IsBackpressure(const Status& status) {
  return status.IsResourceExhausted();
}

namespace retry_internal {
/// Shared retry-decision core: returns true when attempt `failed_attempt`
/// (1-based) should be followed by another attempt, after invoking the
/// policy hooks. False means the caller returns `failure` as-is.
bool PrepareRetry(const RetryPolicy& policy, int failed_attempt,
                  const Status& failure);
}  // namespace retry_internal

/// Runs `op` up to policy.max_attempts times.
Status RetryWithBackoff(const RetryPolicy& policy,
                        const std::function<Status()>& op);

/// Variant for hot paths that made (and failed) the first attempt before
/// constructing any retry machinery: `first_failure` counts as attempt 1,
/// and `op` runs for attempts 2..max_attempts.
Status ResumeRetryWithBackoff(const RetryPolicy& policy, Status first_failure,
                              const std::function<Status()>& op);

template <typename T>
Result<T> RetryWithBackoff(const RetryPolicy& policy,
                           const std::function<Result<T>()>& op) {
  for (int attempt = 1;; ++attempt) {
    Result<T> result = op();
    if (result.ok()) return result;
    if (!retry_internal::PrepareRetry(policy, attempt, result.status())) {
      return result;
    }
  }
}

}  // namespace ironsafe

#endif  // IRONSAFE_COMMON_RETRY_H_
