// Offline validator for the machine-readable perf baselines the figure
// benches emit with --json (BENCH_*.json; schema in docs/EXPERIMENTS.md
// and bench/bench_util.h). Used by the *_smoke and *_baseline_check
// ctests and by hand before committing a refreshed baseline:
//
//   baseline_check <baseline.json> [--require-sim-improvement]
//                                  [--require-improvement]
//                                  [--require-sim-overhead]
//                                  [--require-shard-scaling]
//                                  [--against=<old.json>]
//
// Validates the schema. Besides `sim_cycles`/`wall_ms`, a query may carry
// any `<prefix>_sim_cycles`/`<prefix>_wall_ms` pair: `row_*` holds the
// bench's baseline re-run of each query (1 shard for fig12, the pipeline
// with one execute slot for serve, the plain engine for fig_oblivious),
// `scs_*` fig6's secure split run.
// --require-sim-improvement additionally asserts that, summed over the
// queries carrying a baseline re-run, the measured run spent strictly
// fewer simulated cycles than the baseline (deterministic — the
// fig12_smoke and serve_smoke ctest gate). --require-improvement asserts
// the wall clock too (machine-dependent; run by hand before committing a
// refreshed baseline). --require-sim-overhead asserts the opposite
// inequality: the measured mode spent strictly MORE simulated cycles
// than its baseline — the gate for BENCH_oblivious.json, where the
// padded pipeline must pay for its shape-only access sequence over the
// plain engine (oblivious_smoke ctest; docs/OBLIVIOUS.md).
// --require-shard-scaling reads "name@shards" query keys (the
// BENCH_fig12.json convention) and asserts, per query, that the largest
// shard count spent strictly fewer simulated cycles than the smallest,
// and that no shard count spent more than the smallest — scale-out must
// help and never hurt (fig12_smoke ctest; docs/SHARDING.md).
// --against=<old.json> compares with an older baseline of the same bench
// (e.g. one built from the parent commit): it fails unless both name the
// same queries and every `*sim_cycles` column the old baseline carries is
// present and bit-identical — the simulated model did not drift (a column
// only the new baseline carries is listed as new) — and prints each
// query's cycle columns (a drifted one with its old and new value) and
// every `*wall_ms` delta, the evidence block for a wall-clock-only change.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace ironsafe {
namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "baseline_check: %s\n", msg.c_str());
  return 1;
}

bool PositiveNumber(const obs::JsonValue* v) {
  return v != nullptr && v->is_number() && v->number_value >= 0;
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The names of `q`'s members ending in `suffix`, in name order.
std::set<std::string> Columns(const obs::JsonValue& q,
                              std::string_view suffix) {
  std::set<std::string> out;
  for (const auto& [field, v] : q.object_value) {
    if (EndsWith(field, suffix)) out.insert(field);
  }
  return out;
}

Result<obs::JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parsed = obs::JsonParse(ss.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument("invalid JSON: " +
                                   parsed.status().ToString());
  }
  return parsed;
}

/// The --against check on an already validated "queries" object: prints
/// one line per query, then fails if any query's cycles drifted.
int CompareAgainst(const obs::JsonValue& queries, const std::string& path) {
  auto old_root = ReadJson(path);
  if (!old_root.ok()) return Fail(path + ": " + old_root.status().message());
  const obs::JsonValue* old_queries = old_root->Find("queries");
  if (old_queries == nullptr || !old_queries->is_object()) {
    return Fail(path + ": missing \"queries\" object");
  }
  for (const auto& [name, q] : old_queries->object_value) {
    if (queries.Find(name) == nullptr) {
      return Fail(name + ": in " + path + " but not in the new baseline");
    }
  }
  // "-" stands for a cycle column one of the two baselines lacks.
  auto print_cycles = [](const obs::JsonValue* v) {
    if (PositiveNumber(v)) {
      std::printf("%.0f", v->number_value);
    } else {
      std::printf("-");
    }
  };
  int drifted = 0;
  for (const auto& [name, q] : queries.object_value) {
    const obs::JsonValue* old = old_queries->Find(name);
    if (old == nullptr) return Fail(name + ": missing from " + path);
    // One "<field> <new> identical|new|DRIFTED from <old>" clause per cycle
    // column either baseline carries.
    bool same = true;
    std::printf("%-10s", name.c_str());
    // "sim_cycles" first, then the prefixed pairs in name order.
    std::set<std::string> pairs = Columns(q, "_sim_cycles");
    pairs.merge(Columns(*old, "_sim_cycles"));
    std::vector<std::string> fields = {"sim_cycles"};
    fields.insert(fields.end(), pairs.begin(), pairs.end());
    for (const std::string& field : fields) {
      const obs::JsonValue* now = q.Find(field);
      const obs::JsonValue* was = old->Find(field);
      std::printf(" %s ", field.c_str());
      print_cycles(now);
      if (was == nullptr) {
        std::printf(" new,");
        continue;
      }
      bool field_same = now != nullptr && was->is_number() &&
                        now->number_value == was->number_value;
      if (field_same) {
        std::printf(" identical,");
      } else {
        std::printf(" DRIFTED from ");
        print_cycles(was);
        std::printf(",");
      }
      same = same && field_same;
    }
    std::vector<std::string> walls = {"wall_ms"};
    for (const std::string& field : Columns(q, "_wall_ms")) {
      walls.push_back(field);
    }
    for (const std::string& field : walls) {
      const obs::JsonValue* old_wall = old->Find(field);
      if (!PositiveNumber(old_wall)) continue;
      double before = old_wall->number_value;
      double after = q.Find(field)->number_value;
      std::printf(" %s %.1f -> %.1f ms", field.c_str(), before, after);
      if (before > 0) {
        std::printf(" (%+.1f%%)", 100 * (after - before) / before);
      }
    }
    std::printf("\n");
    if (!same) ++drifted;
  }
  if (drifted > 0) {
    return Fail(std::to_string(drifted) +
                " queries' simulated cycles differ from " + path);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: baseline_check <baseline.json> [flags]");
  bool require_sim = false;
  bool require_wall = false;
  bool require_overhead = false;
  bool require_shards = false;
  std::string against;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-improvement") == 0) {
      require_sim = true;
      require_wall = true;
    } else if (std::strcmp(argv[i], "--require-sim-improvement") == 0) {
      require_sim = true;
    } else if (std::strcmp(argv[i], "--require-sim-overhead") == 0) {
      require_overhead = true;
    } else if (std::strcmp(argv[i], "--require-shard-scaling") == 0) {
      require_shards = true;
    } else if (std::strncmp(argv[i], "--against=", 10) == 0) {
      against = argv[i] + 10;
    } else {
      return Fail(std::string("unknown flag: ") + argv[i]);
    }
  }
  if (require_sim && require_overhead) {
    return Fail("--require-sim-improvement and --require-sim-overhead "
                "are mutually exclusive");
  }

  auto parsed = ReadJson(argv[1]);
  if (!parsed.ok()) return Fail(parsed.status().message());
  const obs::JsonValue& root = *parsed;
  if (!root.is_object()) return Fail("root is not an object");
  const obs::JsonValue* version = root.Find("version");
  if (version == nullptr || !version->is_number() ||
      version->number_value != 1) {
    return Fail("missing or unsupported \"version\" (want 1)");
  }
  const obs::JsonValue* benchmark = root.Find("benchmark");
  if (benchmark == nullptr || !benchmark->is_string()) {
    return Fail("missing \"benchmark\" string");
  }
  if (!PositiveNumber(root.Find("scale_factor"))) {
    return Fail("missing \"scale_factor\" number");
  }
  const obs::JsonValue* queries = root.Find("queries");
  if (queries == nullptr || !queries->is_object()) {
    return Fail("missing \"queries\" object");
  }
  if (queries->object_value.empty()) return Fail("\"queries\" is empty");

  double vec_cycles = 0, row_cycles = 0, vec_wall = 0, row_wall = 0;
  int compared = 0;
  for (const auto& [name, q] : queries->object_value) {
    if (!q.is_object()) return Fail(name + ": entry is not an object");
    const obs::JsonValue* sim = q.Find("sim_cycles");
    if (!PositiveNumber(sim) || sim->number_value <= 0) {
      return Fail(name + ": missing positive \"sim_cycles\"");
    }
    if (!PositiveNumber(q.Find("wall_ms"))) {
      return Fail(name + ": missing \"wall_ms\"");
    }
    const obs::JsonValue* workers = q.Find("workers");
    if (!PositiveNumber(workers) || workers->number_value < 1) {
      return Fail(name + ": missing \"workers\" >= 1");
    }
    for (const std::string& field : Columns(q, "_sim_cycles")) {
      const std::string prefix =
          field.substr(0, field.size() - std::string_view("_sim_cycles").size());
      if (!PositiveNumber(q.Find(field)) ||
          !PositiveNumber(q.Find(prefix + "_wall_ms"))) {
        return Fail(name + ": " + prefix + "_* pair must be two numbers");
      }
    }
    const obs::JsonValue* row_sim = q.Find("row_sim_cycles");
    if (row_sim != nullptr) {
      vec_cycles += sim->number_value;
      row_cycles += row_sim->number_value;
      vec_wall += q.Find("wall_ms")->number_value;
      row_wall += q.Find("row_wall_ms")->number_value;
      ++compared;
    }
  }

  if (require_sim) {
    if (compared == 0) {
      return Fail("improvement check: no baseline entries to compare");
    }
    if (vec_cycles >= row_cycles) {
      return Fail("measured run not cheaper in simulated cycles: " +
                  std::to_string(vec_cycles) + " vs baseline " +
                  std::to_string(row_cycles));
    }
  }
  if (require_overhead) {
    if (compared == 0) {
      return Fail("overhead check: no baseline entries to compare");
    }
    if (vec_cycles <= row_cycles) {
      return Fail(
          "measured mode not costlier in simulated cycles than its "
          "baseline: " +
          std::to_string(vec_cycles) + " vs baseline " +
          std::to_string(row_cycles) +
          " (an oblivious baseline must pay for its padding)");
    }
  }
  if (require_shards) {
    // Group "name@shards" keys by name; each group is one query's sweep
    // over shard counts.
    struct Sweep {
      std::map<long, double> sim_by_shards;
    };
    std::map<std::string, Sweep> sweeps;
    for (const auto& [name, q] : queries->object_value) {
      size_t at = name.rfind('@');
      if (at == std::string::npos || at == 0 || at + 1 >= name.size()) {
        return Fail(name + ": shard-scaling check needs \"name@shards\" keys");
      }
      char* end = nullptr;
      long shards = std::strtol(name.c_str() + at + 1, &end, 10);
      if (end == nullptr || *end != '\0' || shards < 1) {
        return Fail(name + ": malformed shard count suffix");
      }
      sweeps[name.substr(0, at)].sim_by_shards[shards] =
          q.Find("sim_cycles")->number_value;
    }
    for (const auto& [query, sweep] : sweeps) {
      if (sweep.sim_by_shards.size() < 2) {
        return Fail(query + ": shard-scaling check needs >= 2 shard counts");
      }
      auto [min_shards, base_sim] = *sweep.sim_by_shards.begin();
      auto [max_shards, top_sim] = *sweep.sim_by_shards.rbegin();
      if (top_sim >= base_sim) {
        return Fail(query + ": " + std::to_string(max_shards) +
                    " shards not cheaper in simulated cycles than " +
                    std::to_string(min_shards) + " (" +
                    std::to_string(top_sim) + " vs " +
                    std::to_string(base_sim) + ")");
      }
      for (const auto& [shards, sim] : sweep.sim_by_shards) {
        if (sim > base_sim) {
          return Fail(query + ": " + std::to_string(shards) +
                      " shards costlier than " + std::to_string(min_shards) +
                      " — scale-out must never hurt");
        }
      }
    }
  }
  if (!against.empty() && CompareAgainst(*queries, against) != 0) return 1;
  if (require_wall && vec_wall >= row_wall) {
    return Fail("measured run not faster in wall clock: " +
                std::to_string(vec_wall) + " ms vs baseline " +
                std::to_string(row_wall) + " ms");
  }

  std::printf(
      "baseline ok: %s, %zu queries, %d with a baseline re-run"
      " (sim %.0f vs %.0f cycles, wall %.1f vs %.1f ms)\n",
      benchmark->string_value.c_str(), queries->object_value.size(), compared,
      vec_cycles, row_cycles, vec_wall, row_wall);
  return 0;
}

}  // namespace
}  // namespace ironsafe

int main(int argc, char** argv) { return ironsafe::Main(argc, argv); }
