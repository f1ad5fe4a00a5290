// The --arrival spec grammar: every process name constructs the right
// type, parameters land where they should, and malformed specs fail the
// strict way (ContractViolation -> exit 2 at the CLI boundary) instead of
// being silently defaulted.
#include "traffic/spec.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/require.hpp"
#include "traffic/adversary.hpp"

namespace lgg::traffic {
namespace {

TEST(ArrivalSpec, ConstructsEveryProcess) {
  const struct {
    const char* spec;
    const char* name;
  } kCases[] = {
      {"exact", "exact"},
      {"scaled:factor=1.5", "scaled"},
      {"bernoulli:p=0.5", "bernoulli"},
      {"uniform:mean=1.0", "uniform"},
      {"poisson:mean=0.7", "poisson"},
      {"geometric:mean=0.5", "geometric"},
      {"burst:high=2,low=0,len=2,period=5", "burst"},
      {"diurnal:mean=1,amp=0.5,period=100", "diurnal"},
      {"pareto:alpha=2.5,mean=1", "pareto"},
      {"leaky:rho=0.8,sigma=8", "leaky_bucket"},
      {"token_bucket:r=0.5,b=10,period=4", "token_bucket"},
      {"adversary", "adversary"},
      {"adversary:strategy=queue_aware,rho=1.1", "adversary"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.spec);
    const auto process = make_arrival(c.spec);
    ASSERT_NE(process, nullptr);
    EXPECT_EQ(process->name(), c.name);
  }
}

TEST(ArrivalSpec, KeyOrderDoesNotMatter) {
  const auto a = make_arrival("burst:period=5,len=2,low=0,high=2");
  EXPECT_EQ(a->name(), "burst");
}

TEST(ArrivalSpec, AdversaryDefaultsAndOverrides) {
  const auto defaulted = make_arrival("adversary");
  const auto* adv = dynamic_cast<const AdversarialArrival*>(defaulted.get());
  ASSERT_NE(adv, nullptr);
  const AdversaryOptions defaults;
  EXPECT_EQ(adv->options().strategy, defaults.strategy);
  EXPECT_DOUBLE_EQ(adv->options().rho, defaults.rho);
  EXPECT_DOUBLE_EQ(adv->options().sigma, defaults.sigma);
  EXPECT_EQ(adv->options().period, defaults.period);
  EXPECT_EQ(adv->options().fanout, defaults.fanout);

  const auto tuned = make_arrival(
      "adversary:strategy=sweep,rho=1.25,sigma=16,period=8,fanout=4");
  const auto* t = dynamic_cast<const AdversarialArrival*>(tuned.get());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->options().strategy, AdversaryStrategy::kRotatingSweep);
  EXPECT_DOUBLE_EQ(t->options().rho, 1.25);
  EXPECT_DOUBLE_EQ(t->options().sigma, 16.0);
  EXPECT_EQ(t->options().period, 8);
  EXPECT_EQ(t->options().fanout, 4u);
}

TEST(ArrivalSpec, RejectsMalformedSpecs) {
  const char* kBad[] = {
      "",                                    // no process name
      "bogus",                               // unknown process
      "bogus:x=1",                           // unknown process, with params
      "scaled",                              // missing required key
      "scaled:",                             // empty parameter list
      "scaled:factor",                       // not key=value
      "scaled:factor=",                      // empty value
      "scaled:factor=abc",                   // bad number
      "scaled:factor=1,factor=2",            // duplicate key
      "scaled:factor=1,extra=2",             // unknown key
      "scaled:factor=1,",                    // trailing comma
      "exact:x=1",                           // keys on a keyless process
      "burst:high=2,low=0,len=2",            // missing period
      "burst:high=2,low=0,len=2.5,period=5", // non-integer integer key
      "burst:high=2,low=0,len=2.0,period=5", // integer keys are plain integers
      "token_bucket:r=0.5,b=10,period=0",    // ctor validation propagates
      "leaky:rho=-0.5,sigma=8",              // negative rho
      "leaky:rho=nan,sigma=8",               // non-finite
      "diurnal:mean=1,amp=2,period=10",      // amp out of [0,1]
      "pareto:alpha=1,mean=1",               // alpha must exceed 1
      "adversary:strategy=evil",             // unknown strategy
      "adversary:rho=-1",                    // negative rho
      "adversary:sigma=-1",                  // negative sigma
      "adversary:period=0",                  // zero period
      "adversary:fanout=0",                  // zero fanout
      "adversary:fanout=4294967296",         // fanout above u32
  };
  for (const char* spec : kBad) {
    SCOPED_TRACE(std::string("spec: \"") + spec + "\"");
    EXPECT_THROW(make_arrival(spec), ContractViolation);
  }
}

TEST(ArrivalSpec, GrammarHelpMentionsEveryProcess) {
  const std::string help{arrival_grammar_help()};
  for (const char* name :
       {"exact", "scaled", "bernoulli", "uniform", "poisson", "geometric",
        "burst", "diurnal", "pareto", "leaky", "token_bucket", "adversary"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace lgg::traffic
