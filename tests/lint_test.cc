// Tests for tools/ironsafe_lint: every rule must fire on its violating
// fixture and stay silent on its clean one, suppressions must be honored,
// and the JSON report must parse with the documented schema.

#include "tools/ironsafe_lint/lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace ironsafe::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Lints a fixture as if it lived at `rel_path` in the tree.
std::vector<Diagnostic> LintFixtureAs(const std::string& fixture,
                                      const std::string& rel_path) {
  return LintSource(rel_path, ReadFixture(fixture));
}

std::multiset<std::string> Rules(const std::vector<Diagnostic>& diags) {
  std::multiset<std::string> out;
  for (const auto& d : diags) out.insert(d.rule);
  return out;
}

TEST(LintLayering, FiresOnUpwardInclude) {
  auto diags =
      LintFixtureAs("layering_violating.cc", "src/crypto/layering_violating.cc");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_EQ(diags[1].rule, "layering");
  // engine/ironsafe.h on line 4, policy/policy.h on line 5.
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[1].line, 5);
  EXPECT_NE(diags[0].message.find("engine"), std::string::npos);
}

TEST(LintLayering, SilentOnDeclaredDeps) {
  EXPECT_TRUE(
      LintFixtureAs("layering_clean.cc", "src/crypto/layering_clean.cc")
          .empty());
}

TEST(LintLayering, TransitiveClosureIsAllowed) {
  // sql links securestore which links tee: sql -> tee is indirect but legal.
  EXPECT_TRUE(LintSource("src/sql/x.cc", "#include \"tee/sgx.h\"\n").empty());
  // ...but tee -> sql would invert the DAG.
  auto diags = LintSource("src/tee/x.cc", "#include \"sql/value.h\"\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layering");
}

TEST(LintLayering, ServerMayIncludeEverythingBelow) {
  EXPECT_TRUE(LintFixtureAs("server_layering_clean.cc",
                            "src/server/server_layering_clean.cc")
                  .empty());
}

TEST(LintLayering, NothingBelowServerMayIncludeIt) {
  auto diags = LintFixtureAs("server_layering_violating.cc",
                             "src/engine/server_layering_violating.cc");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("server"), std::string::npos);
  // The inversion is caught from every lower layer, not just engine.
  auto net_diags = LintSource("src/net/x.cc",
                              "#include \"server/scheduler.h\"\n");
  ASSERT_EQ(net_diags.size(), 1u);
  EXPECT_EQ(net_diags[0].rule, "layering");
}

TEST(LintLayering, DistMayIncludeEverythingItLinks) {
  EXPECT_TRUE(LintFixtureAs("dist_layering_clean.cc",
                            "src/dist/dist_layering_clean.cc")
                  .empty());
}

TEST(LintLayering, DistMayNotIncludeTpchOrServer) {
  auto diags = LintFixtureAs("dist_layering_violating.cc",
                             "src/dist/dist_layering_violating.cc");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_NE(diags[0].message.find("tpch"), std::string::npos);
  EXPECT_EQ(diags[1].rule, "layering");
  EXPECT_NE(diags[1].message.find("server"), std::string::npos);
  // And nothing below dist may include it: the fleet caps the DAG
  // alongside server.
  auto engine_diags =
      LintSource("src/engine/x.cc", "#include \"dist/fleet.h\"\n");
  ASSERT_EQ(engine_diags.size(), 1u);
  EXPECT_EQ(engine_diags[0].rule, "layering");
}

TEST(LintLayering, BenchAndTestsAreUnrestricted) {
  EXPECT_TRUE(
      LintSource("bench/x.cc", "#include \"engine/ironsafe.h\"\n").empty());
  EXPECT_TRUE(
      LintSource("tests/x.cc", "#include \"engine/ironsafe.h\"\n").empty());
}

TEST(LintEnclaveBoundary, FiresOnHostIo) {
  auto diags =
      LintFixtureAs("enclave_violating.cc", "src/tee/enclave_violating.cc");
  EXPECT_EQ(Rules(diags),
            (std::multiset<std::string>{"enclave-boundary", "enclave-boundary",
                                        "enclave-boundary"}));
}

TEST(LintEnclaveBoundary, SilentOnCleanSecureWorldCode) {
  EXPECT_TRUE(
      LintFixtureAs("enclave_clean.cc", "src/tee/enclave_clean.cc").empty());
}

TEST(LintEnclaveBoundary, OnlyAppliesToSecureWorld) {
  // The same I/O is fine outside src/tee and src/securestore.
  for (const auto& d :
       LintFixtureAs("enclave_violating.cc", "src/engine/x.cc")) {
    EXPECT_NE(d.rule, "enclave-boundary") << d.message;
  }
}

TEST(LintDeterminism, FiresOnClocksAndRandomness) {
  auto diags = LintFixtureAs("determinism_violating.cc",
                             "src/sim/determinism_violating.cc");
  // random_device, srand, rand, system_clock, time — one each.
  EXPECT_EQ(diags.size(), 5u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "determinism");
}

TEST(LintDeterminism, SilentOnSeededAndSimulatedTime) {
  EXPECT_TRUE(
      LintFixtureAs("determinism_clean.cc", "src/sim/determinism_clean.cc")
          .empty());
}

TEST(LintDeterminism, TimingShimsAreAllowlisted) {
  std::string shim =
      "#pragma once\n"
      "#include <chrono>\n"
      "inline auto Now() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(LintSource("bench/bench_util.h", shim).empty());
  EXPECT_TRUE(LintSource("src/common/thread_pool.cc", shim).empty());
  EXPECT_FALSE(LintSource("src/common/thread_pool.h", shim).empty());
}

TEST(LintDeterminism, FiresOnUnorderedIterationInOrderedOutputFile) {
  auto diags =
      LintFixtureAs("unordered_violating.cc", "src/obs/unordered_violating.cc");
  // One range-for over an unordered_map, one .begin() walk of an
  // unordered_set.
  EXPECT_EQ(diags.size(), 2u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "determinism");
    EXPECT_NE(d.message.find("hash order"), std::string::npos);
  }
}

TEST(LintDeterminism, SilentOnSortedSerialization) {
  EXPECT_TRUE(
      LintFixtureAs("unordered_clean.cc", "src/obs/unordered_clean.cc")
          .empty());
}

TEST(LintDeterminism, UnorderedIterationAllowedOffTheSerializationPath) {
  // The same loops are fine where output order is not observable.
  EXPECT_TRUE(
      LintFixtureAs("unordered_violating.cc", "src/sql/hash_probe.cc")
          .empty());
}

TEST(LintVectorKernelBoxing, FiresOnValueInKernelFile) {
  auto diags = LintFixtureAs("vector_kernel_violating.cc",
                             "src/sql/vector_kernels.cc");
  // Value appears twice: the parameter type and the loop binding.
  ASSERT_EQ(diags.size(), 2u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "vector-kernel-boxing");
    EXPECT_NE(d.message.find("unboxed"), std::string::npos);
  }
}

TEST(LintVectorKernelBoxing, SilentOnUnboxedKernel) {
  EXPECT_TRUE(LintFixtureAs("vector_kernel_clean.cc",
                            "src/sql/vector_kernels.cc")
                  .empty());
}

TEST(LintVectorKernelBoxing, OnlyAppliesToKernelFiles) {
  // The same boxed code is legal everywhere else — including the
  // vectorized evaluator, whose job is the boxing fallback.
  EXPECT_TRUE(LintFixtureAs("vector_kernel_violating.cc",
                            "src/sql/vector_eval.cc")
                  .empty());
  EXPECT_TRUE(LintFixtureAs("vector_kernel_violating.cc",
                            "src/sql/executor.cc")
                  .empty());
}

TEST(LintVectorKernelBoxing, AppliesToKernelHeadersToo) {
  auto diags = LintFixtureAs("vector_kernel_violating.cc",
                             "src/sql/vector_kernels.h");
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].rule, "vector-kernel-boxing");
}

TEST(LintVectorKernelBoxing, AllowCommentSilences) {
  std::string code =
      "// ironsafe-lint: allow(vector-kernel-boxing)\n"
      "class Value;\n";
  EXPECT_TRUE(LintSource("src/sql/vector_kernels.cc", code).empty());
}

TEST(LintObliviousBranching, FiresOnBranchyKernelFile) {
  auto diags = LintFixtureAs("oblivious_kernel_violating.cc",
                             "src/sql/oblivious_kernels.cc");
  // 2x if, 1x else, 1x ternary '?', 1x break.
  ASSERT_EQ(diags.size(), 5u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "oblivious-branching");
    EXPECT_NE(d.message.find("public shapes"), std::string::npos);
  }
}

TEST(LintObliviousBranching, SilentOnBranchFreeKernel) {
  EXPECT_TRUE(LintFixtureAs("oblivious_kernel_clean.cc",
                            "src/sql/oblivious_kernels.cc")
                  .empty());
}

TEST(LintObliviousBranching, OnlyAppliesToObliviousKernelFiles) {
  // The same branchy code is legal everywhere else — including the
  // oblivious executor's orchestration layer, which may branch on
  // public shapes freely.
  EXPECT_TRUE(LintFixtureAs("oblivious_kernel_violating.cc",
                            "src/sql/oblivious_executor.cc")
                  .empty());
  EXPECT_TRUE(LintFixtureAs("oblivious_kernel_violating.cc",
                            "src/sql/executor.cc")
                  .empty());
}

TEST(LintObliviousBranching, AppliesToKernelHeadersToo) {
  auto diags = LintFixtureAs("oblivious_kernel_violating.cc",
                             "src/sql/oblivious_kernels.h");
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].rule, "oblivious-branching");
}

TEST(LintObliviousBranching, AllowCommentSilences) {
  std::string code =
      "// ironsafe-lint: allow(oblivious-branching)\n"
      "int F(int x) { return x > 0 ? x : 0; }\n";
  EXPECT_TRUE(LintSource("src/sql/oblivious_kernels.cc", code).empty());
}

TEST(LintObliviousBranching, ShippedKernelsAreClean) {
  // The real kernels must satisfy their own rule with no suppressions.
  for (const char* rel :
       {"src/sql/oblivious_kernels.h", "src/sql/oblivious_kernels.cc"}) {
    std::ifstream in(std::string(LINT_FIXTURE_DIR "/../../") + rel,
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << rel;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    EXPECT_EQ(text.find("ironsafe-lint: allow"), std::string::npos) << rel;
    EXPECT_TRUE(LintSource(rel, text).empty()) << rel;
  }
}

TEST(LintHygiene, FiresOnMissingGuardAndUsingNamespaceStd) {
  auto diags =
      LintFixtureAs("hygiene_violating.h", "src/sql/hygiene_violating.h");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "hygiene");
  EXPECT_EQ(diags[0].line, 1);  // guard diagnostic anchors to the top
  EXPECT_EQ(diags[1].rule, "hygiene");
  EXPECT_NE(diags[1].message.find("using namespace std"), std::string::npos);
}

TEST(LintHygiene, AcceptsBothGuardStyles) {
  EXPECT_TRUE(
      LintFixtureAs("hygiene_clean.h", "src/sql/hygiene_clean.h").empty());
  EXPECT_TRUE(
      LintFixtureAs("hygiene_pragma_once.h", "src/sql/hygiene_pragma_once.h")
          .empty());
}

TEST(LintHygiene, SourceFilesNeedNoGuard) {
  EXPECT_TRUE(LintSource("src/sql/x.cc", "int x = 1;\n").empty());
}

TEST(LintSuppression, AllowCommentSilencesItsRuleOnly) {
  auto diags = LintFixtureAs("suppression.cc", "src/sim/suppression.cc");
  // Two violations carry allow(determinism) (comment-above and same-line
  // form); the third carries allow(hygiene) and must still fire.
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "determinism");
  EXPECT_NE(diags[0].message.find("srand"), std::string::npos);
}

TEST(LintTreeWalk, DetectsIncludeCycles) {
  Options opts;
  opts.tree_root = LINT_FIXTURE_DIR;
  opts.roots = {"cycle"};
  Report report = LintTree(opts);
  EXPECT_EQ(report.files_scanned, 2);
  bool found = false;
  for (const auto& d : report.diagnostics) {
    if (d.rule == "layering" &&
        d.message.find("include cycle") != std::string::npos) {
      found = true;
      EXPECT_NE(d.message.find("cycle/a.h"), std::string::npos);
      EXPECT_NE(d.message.find("cycle/b.h"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << "no include-cycle diagnostic reported";
}

TEST(LintTreeWalk, FixtureDirectoryIsExcludedByDefault) {
  Options opts;
  opts.tree_root = std::string(LINT_FIXTURE_DIR) + "/..";
  opts.roots = {"lint_fixtures"};
  Report report = LintTree(opts);
  EXPECT_EQ(report.files_scanned, 0);
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(LintJsonReport, MatchesDocumentedSchema) {
  Options opts;
  opts.tree_root = LINT_FIXTURE_DIR;
  opts.roots = {"cycle"};
  Report report = LintTree(opts);
  auto parsed = obs::JsonParse(ReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.Find("version"), nullptr);
  EXPECT_EQ(root.Find("version")->number_value, 1);
  ASSERT_NE(root.Find("files_scanned"), nullptr);
  EXPECT_EQ(root.Find("files_scanned")->number_value, 2);
  const obs::JsonValue* diags = root.Find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_TRUE(diags->is_array());
  ASSERT_NE(root.Find("violation_count"), nullptr);
  EXPECT_EQ(root.Find("violation_count")->number_value,
            static_cast<double>(diags->array_value.size()));
  for (const obs::JsonValue& d : diags->array_value) {
    ASSERT_TRUE(d.is_object());
    ASSERT_NE(d.Find("rule"), nullptr);
    EXPECT_TRUE(d.Find("rule")->is_string());
    ASSERT_NE(d.Find("file"), nullptr);
    EXPECT_TRUE(d.Find("file")->is_string());
    ASSERT_NE(d.Find("line"), nullptr);
    EXPECT_TRUE(d.Find("line")->is_number());
    ASSERT_NE(d.Find("message"), nullptr);
    EXPECT_TRUE(d.Find("message")->is_string());
  }
}

TEST(LintJsonReport, DiagnosticsAreSortedAndDeterministic) {
  Options opts;
  opts.tree_root = LINT_FIXTURE_DIR;
  opts.roots = {"cycle"};
  std::string a = ReportToJson(LintTree(opts));
  std::string b = ReportToJson(LintTree(opts));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ironsafe::lint
