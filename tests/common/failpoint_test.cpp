// Failpoint framework: grammar, one-shot trigger semantics, persistent hit
// counters, and the durable-write helper's injected-failure contract —
// plus the regression that obs::write_file_atomic rides the same durable
// path (fsync before rename) and honors the statusz.* sites.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/failpoint.hpp"
#include "obs/expose.hpp"

namespace lgg {
namespace {

using common::FailpointAction;
using common::FailpointRegistry;
using common::ScopedFailpoints;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

bool exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(Failpoint, MalformedSpecsThrowAndArmNothing) {
  FailpointRegistry& registry = FailpointRegistry::instance();
  registry.clear();
  for (const char* bad :
       {"no-colon", ":at=1", "site:", "site:at", "site:at=0", "site:at=x",
        "site:at=1,action=explode", "site:at=1,huh=2", "site:at=1,,",
        "site:at=1,at=2"}) {
    EXPECT_THROW(registry.arm(bad), std::runtime_error) << bad;
    EXPECT_FALSE(registry.armed()) << bad;
  }
  // A malformed clause arms nothing from the whole spec, even the valid
  // prefix before it.
  EXPECT_THROW(registry.arm("good.site:at=1;bad"), std::runtime_error);
  EXPECT_FALSE(registry.armed());
}

TEST(Failpoint, FiresOnceAtTheNthHitAndKeepsCounting) {
  const ScopedFailpoints fp("unit.site:at=3");
  FailpointRegistry& registry = FailpointRegistry::instance();
  EXPECT_FALSE(registry.hit("unit.site").has_value());
  EXPECT_FALSE(registry.hit("unit.site").has_value());
  const auto fire = registry.hit("unit.site");
  ASSERT_TRUE(fire.has_value());
  EXPECT_EQ(fire->action, FailpointAction::kError);
  // One-shot: the trigger disarmed itself, but the counter keeps moving —
  // a recovered run re-passing the site must not re-fire.
  EXPECT_FALSE(registry.hit("unit.site").has_value());
  EXPECT_EQ(registry.hits("unit.site"), 4u);
}

TEST(Failpoint, MultipleClausesArmIndependentSites) {
  const ScopedFailpoints fp("unit.a:at=1;unit.b:at=2,action=torn,keep=7");
  FailpointRegistry& registry = FailpointRegistry::instance();
  ASSERT_TRUE(registry.hit("unit.a").has_value());
  EXPECT_FALSE(registry.hit("unit.b").has_value());
  const auto fire = registry.hit("unit.b");
  ASSERT_TRUE(fire.has_value());
  EXPECT_EQ(fire->action, FailpointAction::kTorn);
  EXPECT_EQ(fire->keep, 7u);
  // A site the spec never named stays quiet.
  EXPECT_FALSE(common::failpoint("unit.c").has_value());
}

TEST(Failpoint, ScopedGuardClearsTheRegistry) {
  {
    const ScopedFailpoints fp("unit.scoped:at=1");
    EXPECT_TRUE(FailpointRegistry::instance().armed());
  }
  EXPECT_FALSE(FailpointRegistry::instance().armed());
  EXPECT_EQ(FailpointRegistry::instance().hits("unit.scoped"), 0u);
}

TEST(Failpoint, DurableWriteSurvivesNoInjection) {
  const std::string path = ::testing::TempDir() + "/fp_durable.txt";
  std::remove(path.c_str());
  EXPECT_TRUE(common::write_file_durable(path, "payload", "unit.io"));
  EXPECT_EQ(slurp(path), "payload");
  EXPECT_FALSE(exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Failpoint, InjectedFailureAtEveryStageLeavesDestinationUntouched) {
  const std::string path = ::testing::TempDir() + "/fp_stage.txt";
  ASSERT_TRUE(common::write_file_durable(path, "old", "unit.io"));
  for (const char* spec :
       {"unit.io.write:at=1", "unit.io.write:at=1,action=torn,keep=1",
        "unit.io.fsync:at=1", "unit.io.rename:at=1"}) {
    SCOPED_TRACE(spec);
    const ScopedFailpoints fp(spec);
    EXPECT_FALSE(common::write_file_durable(path, "new", "unit.io"));
    // The failed write leaves no temp debris and the old bytes intact.
    EXPECT_FALSE(exists(path + ".tmp"));
    EXPECT_EQ(slurp(path), "old");
  }
  // With the registry clear the identical call goes through.
  EXPECT_TRUE(common::write_file_durable(path, "new", "unit.io"));
  EXPECT_EQ(slurp(path), "new");
  std::remove(path.c_str());
}

TEST(Failpoint, ObsWriteFileAtomicUsesTheDurablePath) {
  // Regression for the statusz path: write_file_atomic must honor the
  // statusz.* failpoint sites (i.e. ride write_file_durable, which fsyncs
  // before the rename) and keep the previous snapshot on injected failure.
  const std::string path = ::testing::TempDir() + "/fp_statusz.prom";
  ASSERT_TRUE(obs::write_file_atomic(path, "gen 1\n"));
  {
    const ScopedFailpoints fp("statusz.rename:at=1");
    EXPECT_FALSE(obs::write_file_atomic(path, "gen 2\n"));
    EXPECT_EQ(slurp(path), "gen 1\n");
    EXPECT_FALSE(exists(path + ".tmp"));
  }
  EXPECT_TRUE(obs::write_file_atomic(path, "gen 2\n"));
  EXPECT_EQ(slurp(path), "gen 2\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lgg
