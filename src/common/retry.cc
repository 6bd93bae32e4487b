#include "common/retry.h"

#include <algorithm>
#include <utility>

namespace ironsafe {

uint64_t BackoffForAttempt(const RetryPolicy& policy, int attempt) {
  if (attempt <= 2) return std::min(policy.initial_backoff_ns, policy.max_backoff_ns);
  uint64_t backoff = policy.initial_backoff_ns;
  for (int i = 2; i < attempt; ++i) {
    if (backoff >= policy.max_backoff_ns / std::max<uint32_t>(policy.backoff_multiplier, 1)) {
      return policy.max_backoff_ns;
    }
    backoff *= std::max<uint32_t>(policy.backoff_multiplier, 1);
  }
  return std::min(backoff, policy.max_backoff_ns);
}

namespace retry_internal {

bool PrepareRetry(const RetryPolicy& policy, int failed_attempt,
                  const Status& failure) {
  if (failed_attempt >= policy.max_attempts) return false;
  if (policy.retryable && !policy.retryable(failure)) return false;
  int next_attempt = failed_attempt + 1;
  if (policy.on_backoff) {
    policy.on_backoff(next_attempt, BackoffForAttempt(policy, next_attempt),
                      failure);
  }
  return true;
}

}  // namespace retry_internal

Status RetryWithBackoff(const RetryPolicy& policy,
                        const std::function<Status()>& op) {
  for (int attempt = 1;; ++attempt) {
    Status status = op();
    if (status.ok()) return status;
    if (!retry_internal::PrepareRetry(policy, attempt, status)) return status;
  }
}

Status ResumeRetryWithBackoff(const RetryPolicy& policy, Status first_failure,
                              const std::function<Status()>& op) {
  Status status = std::move(first_failure);
  for (int attempt = 1; !status.ok(); ++attempt) {
    if (!retry_internal::PrepareRetry(policy, attempt, status)) return status;
    status = op();
  }
  return status;
}

}  // namespace ironsafe
