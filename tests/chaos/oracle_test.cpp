#include "chaos/oracle.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "chaos/runner.hpp"
#include "chaos/scenario.hpp"
#include "common/require.hpp"
#include "core/scenarios.hpp"

namespace lgg::chaos {
namespace {

ScenarioConfig clean_config() {
  ScenarioConfig c;
  c.label = "clean";
  c.network = core::scenarios::fat_path(5, 2, 1, 2);
  c.horizon = 400;
  c.seed = 3;
  return c;
}

ScenarioConfig byzantine_config(bool strict) {
  ScenarioConfig c = clean_config();
  c.label = "byz";
  // Relay 2 declares 1000 forever from step 10 — illegal under Def. 7
  // whenever its queue differs (retention 0 forces truthful declarations).
  c.faults.add({core::FaultKind::kByzantine, 2, 10, -1,
                core::CrashMode::kWipe, 0, 1000});
  c.strict_declarations = strict;
  return c;
}

TEST(OracleSuite, CleanRunPassesAllSoundOracles) {
  const ScenarioOutcome outcome = run_scenario(clean_config());
  EXPECT_EQ(outcome.verdict, Verdict::kOk) << outcome.error;
  EXPECT_FALSE(outcome.violation.has_value());
  EXPECT_EQ(outcome.steps_done, 400);
}

TEST(OracleSuite, StrictRBoundCatchesScriptedByzantineLie) {
  const ScenarioOutcome outcome = run_scenario(byzantine_config(true));
  ASSERT_EQ(outcome.verdict, Verdict::kViolation);
  ASSERT_TRUE(outcome.violation.has_value());
  EXPECT_EQ(outcome.violation->oracle, kOracleRBound);
  EXPECT_EQ(outcome.violation->step, 10);
  EXPECT_NE(outcome.violation->message.find("Def. 7"), std::string::npos);
}

TEST(OracleSuite, ScriptedLiesAreExcludedByDefault) {
  // Without strict_declarations the scripted lie is injected behavior, not
  // a bug — the run must complete clean.
  const ScenarioOutcome outcome = run_scenario(byzantine_config(false));
  EXPECT_EQ(outcome.verdict, Verdict::kOk) << outcome.error;
  EXPECT_FALSE(outcome.violation.has_value());
}

TEST(OracleSuite, LegalLyingPoliciesPassTheRBoundOracle) {
  // Declaration policies model the paper's *legal* freedom: when q <= R a
  // node may declare anything in [0, R].  The R-bound oracle must accept
  // every such lie — a false positive here would poison whole soaks.
  for (const auto policy : {core::DeclarationPolicy::kDeclareZero,
                            core::DeclarationPolicy::kDeclareR,
                            core::DeclarationPolicy::kRandom}) {
    ScenarioConfig c = clean_config();
    c.label = "legal-liar";
    c.network = core::scenarios::generalize(
        core::scenarios::fat_path(5, 2, 1, 2), 3);
    c.declaration = policy;
    const ScenarioOutcome outcome = run_scenario(c);
    EXPECT_EQ(outcome.verdict, Verdict::kOk) << outcome.error;
    EXPECT_FALSE(outcome.violation.has_value());
  }
}

TEST(OracleSuite, StateOracleCatchesBrokenLemma1Bound) {
  // Deliberately unsound arming: the Lemma 1 bound is computed for exact
  // arrivals, then the run is overloaded 20x.  P_t blows through the bound
  // and the state oracle must report it (true-positive check).
  ScenarioConfig c = clean_config();
  c.label = "overload-state";
  c.arrival_scale = 20.0;
  c.horizon = 3000;
  c.oracles = kOracleAlwaysSound | kOracleState;
  const ScenarioOutcome outcome = run_scenario(c);
  ASSERT_EQ(outcome.verdict, Verdict::kViolation);
  ASSERT_TRUE(outcome.violation.has_value());
  EXPECT_EQ(outcome.violation->oracle, kOracleState);
}

TEST(OracleSuite, GrowthOracleCatchesBrokenProperty1Bound) {
  ScenarioConfig c = clean_config();
  c.label = "overload-growth";
  c.arrival_scale = 20.0;
  c.horizon = 3000;
  c.oracles = kOracleAlwaysSound | kOracleGrowth;
  const ScenarioOutcome outcome = run_scenario(c);
  ASSERT_EQ(outcome.verdict, Verdict::kViolation);
  ASSERT_TRUE(outcome.violation.has_value());
  EXPECT_EQ(outcome.violation->oracle, kOracleGrowth);
}

TEST(Runner, BadProtocolIsAnErrorNotAFinding) {
  ScenarioConfig c = clean_config();
  c.protocol = "no_such_protocol";
  const ScenarioOutcome outcome = run_scenario(c);
  EXPECT_EQ(outcome.verdict, Verdict::kError);
  EXPECT_FALSE(outcome.violation.has_value());
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(is_finding(c, outcome));
}

TEST(Runner, DivergenceIsAFindingOnlyWhenStabilityWasPromised) {
  ScenarioConfig c = clean_config();
  c.label = "overload-diverge";
  c.arrival_scale = 20.0;
  c.horizon = 100000;
  c.divergence_bound = 1e6;
  const ScenarioOutcome outcome = run_scenario(c);
  ASSERT_EQ(outcome.verdict, Verdict::kDiverged);
  EXPECT_LT(outcome.steps_done, 100000);
  EXPECT_FALSE(is_finding(c, outcome));
  ScenarioConfig promised = c;
  promised.expect_stable = true;
  EXPECT_TRUE(is_finding(promised, outcome));
}

TEST(Runner, OutcomeRoundTripsThroughText) {
  ScenarioOutcome outcome = run_scenario(byzantine_config(true));
  ASSERT_TRUE(outcome.violation.has_value());
  // Free text keeps its line breaks and backslashes without spilling onto
  // a line of its own.
  outcome.violation->message += "\nverdict ok\\n\\";
  outcome.error = "first\nsecond";
  std::stringstream ss;
  write_outcome(ss, outcome);
  const ScenarioOutcome back = read_outcome(ss);
  EXPECT_EQ(back.verdict, outcome.verdict);
  ASSERT_TRUE(back.violation.has_value());
  EXPECT_EQ(back.violation->oracle, outcome.violation->oracle);
  EXPECT_EQ(back.violation->step, outcome.violation->step);
  EXPECT_EQ(back.violation->message, outcome.violation->message);
  EXPECT_EQ(back.error, outcome.error);
  EXPECT_EQ(back.steps_done, outcome.steps_done);
}

TEST(Runner, OutcomeRejectsMistypedText) {
  // A mistyped expected outcome must not read as the default "ok".
  for (const char* text :
       {"verdict vilation\nsteps 3\n", "steps 3\npackets 0\n", "",
        "verdict ok\nstep 3\n"}) {
    SCOPED_TRACE(text);
    std::istringstream is(text);
    EXPECT_THROW((void)read_outcome(is), ContractViolation);
  }
}

}  // namespace
}  // namespace lgg::chaos
