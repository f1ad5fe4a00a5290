// Span-tracing contracts: ring-lane overwrite semantics, lane growth,
// Chrome trace-event export validity, and the zero-perturbation guarantee
// when a tracer rides a live simulator (the bitwise half of which is
// pinned by the ShardEquivalence suite).
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/arrival.hpp"
#include "core/scenarios.hpp"
#include "core/simulator.hpp"
#include "obs/telemetry.hpp"

namespace lgg {
namespace {

obs::SpanRecord make_span(std::uint64_t step, std::uint16_t phase,
                          std::uint16_t shard = obs::kSerialShard) {
  obs::SpanRecord span;
  span.step = step;
  span.t_start_nanos = step * 100;
  span.dur_nanos = 10;
  span.phase = phase;
  span.shard = shard;
  return span;
}

TEST(SpanLane, FillsToCapacityWithoutDropping) {
  obs::SpanLane lane(4);
  EXPECT_EQ(lane.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) lane.record(make_span(i, 0));
  EXPECT_EQ(lane.size(), 4u);
  EXPECT_EQ(lane.dropped(), 0u);
  const std::vector<obs::SpanRecord> spans = lane.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].step, i);
}

TEST(SpanLane, WrapOverwritesOldestAndCountsDropped) {
  obs::SpanLane lane(3);
  for (std::uint64_t i = 0; i < 7; ++i) lane.record(make_span(i, 1));
  EXPECT_EQ(lane.size(), 3u);
  EXPECT_EQ(lane.dropped(), 4u);
  const std::vector<obs::SpanRecord> spans = lane.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Oldest-to-newest window over the most recent records.
  EXPECT_EQ(spans[0].step, 4u);
  EXPECT_EQ(spans[1].step, 5u);
  EXPECT_EQ(spans[2].step, 6u);
}

TEST(SpanLane, CapacityOneKeepsOnlyTheNewest) {
  obs::SpanLane lane(1);
  for (std::uint64_t i = 0; i < 5; ++i) lane.record(make_span(i, 2));
  EXPECT_EQ(lane.size(), 1u);
  EXPECT_EQ(lane.dropped(), 4u);
  EXPECT_EQ(lane.spans().front().step, 4u);
}

TEST(SpanLane, ZeroCapacityClampsToOne) {
  obs::SpanLane lane(0);
  EXPECT_EQ(lane.capacity(), 1u);
  lane.record(make_span(7, 0));
  EXPECT_EQ(lane.size(), 1u);
}

TEST(SpanLane, ClearResetsSizeAndDropCount) {
  obs::SpanLane lane(2);
  for (std::uint64_t i = 0; i < 5; ++i) lane.record(make_span(i, 0));
  lane.clear();
  EXPECT_EQ(lane.size(), 0u);
  EXPECT_EQ(lane.dropped(), 0u);
  EXPECT_EQ(lane.capacity(), 2u);
}

TEST(SpanTracer, EnsureLanesGrowsAndNeverShrinks) {
  obs::SpanTracer tracer;
  EXPECT_EQ(tracer.lane_count(), 0u);
  tracer.ensure_lanes(3);
  EXPECT_EQ(tracer.lane_count(), 3u);
  tracer.lane(2).record(make_span(1, 0, 1));
  tracer.ensure_lanes(1);
  EXPECT_EQ(tracer.lane_count(), 3u);
  EXPECT_EQ(tracer.lane(2).size(), 1u);
  tracer.ensure_lanes(5);
  EXPECT_EQ(tracer.lane_count(), 5u);
  EXPECT_EQ(tracer.total_spans(), 1u);
}

TEST(SpanTracer, ChromeExportCarriesNamesShardsAndCounts) {
  obs::SpanTracerOptions options;
  options.lane_capacity = 8;
  obs::SpanTracer tracer(options);
  tracer.ensure_lanes(2);
  tracer.lane(0).record(make_span(3, 0));
  tracer.lane(1).record(make_span(3, 1, 0));
  // Out-of-range phase index: the exporter falls back to "phase<p>".
  tracer.lane(1).record(make_span(4, 9, 0));

  const std::array<std::string_view, 2> names = {"injection", "selection"};
  std::ostringstream os;
  const std::size_t written = tracer.write_chrome_trace(os, names);
  EXPECT_EQ(written, 3u);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"injection\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"selection\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase9\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":3"), std::string::npos);
}

TEST(SpanTracer, DroppedSpansAreReportedInOtherData) {
  obs::SpanTracerOptions options;
  options.lane_capacity = 2;
  obs::SpanTracer tracer(options);
  tracer.ensure_lanes(1);
  for (std::uint64_t i = 0; i < 5; ++i) tracer.lane(0).record(make_span(i, 0));
  EXPECT_EQ(tracer.total_dropped(), 3u);
  std::ostringstream os;
  tracer.write_chrome_trace(os, {});
  EXPECT_NE(os.str().find("\"dropped\":3"), std::string::npos);
}

TEST(SpanTracer, AttachedTracerNeverPerturbsTheTrajectory) {
  // With `toggled`, the tracer and the telemetry session are attached for
  // 7 steps and detached for the next 7, as bench_perf_core's cost
  // protocol switches them between blocks.
  const auto run = [](obs::SpanTracer* tracer,
                      obs::Telemetry* toggled = nullptr) {
    core::SimulatorOptions options;
    options.seed = 0x0B5;
    core::Simulator sim(core::scenarios::grid_single(3, 4), options);
    sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.7));
    if (toggled == nullptr) {
      if (tracer != nullptr) sim.set_tracer(tracer);
      sim.run(200);
    } else {
      for (TimeStep t = 0; t < 200; t += 7) {
        const bool on = t % 14 == 0;
        sim.set_tracer(on ? tracer : nullptr);
        sim.set_telemetry(on ? toggled : nullptr);
        sim.run(std::min<TimeStep>(7, 200 - t));
      }
    }
    return std::vector<PacketCount>(sim.queues().begin(),
                                    sim.queues().end());
  };
  obs::SpanTracer tracer;
  const auto traced = run(&tracer);
  EXPECT_EQ(traced, run(nullptr));
  // One span per (step, phase) on the serial engine's main lane.
  EXPECT_GT(tracer.total_spans(), 0u);
  ASSERT_GE(tracer.lane_count(), 1u);
  EXPECT_EQ(tracer.lane(0).size() + tracer.lane(0).dropped(),
            200u * core::kStepPhaseCount);

  std::ostringstream stream;
  obs::OstreamJsonlSink sink(stream);
  obs::TelemetryOptions topts;
  topts.snapshot_every = 5;
  topts.flight_capacity = 64;
  topts.hotspot_k = 4;
  obs::Telemetry telemetry(topts);
  telemetry.set_sink(&sink);
  obs::SpanTracer toggled_tracer;
  EXPECT_EQ(run(&toggled_tracer, &telemetry), run(nullptr));
  EXPECT_GT(toggled_tracer.total_spans(), 0u);
  EXPECT_FALSE(stream.str().empty());
}

TEST(SpanTracer, OneShardRecordsTheInlineSpanSequence) {
  // enable_sharding(1, T) builds no pool and never fans out: its spans are
  // exactly a default run's — lane 0 only, every span kSerialShard — even
  // though LGG selects locally and the arrival process is parallel-safe.
  using Key = std::tuple<std::uint64_t, std::uint16_t, std::size_t,
                         std::uint16_t>;  // (step, phase, lane, shard)
  const auto trace = [](bool one_shard_four_threads) {
    core::SimulatorOptions options;
    options.seed = 0x0B6;
    core::Simulator sim(core::scenarios::grid_single(3, 4), options);
    sim.set_arrival(std::make_unique<core::BernoulliArrival>(0.7));
    if (one_shard_four_threads) sim.enable_sharding(1, 4);
    obs::SpanTracer tracer;
    sim.set_tracer(&tracer);
    sim.run(50);
    EXPECT_EQ(tracer.lane_count(), 1u);
    std::vector<Key> keys;
    for (std::size_t lane = 0; lane < tracer.lane_count(); ++lane) {
      for (const obs::SpanRecord& span : tracer.lane(lane).spans()) {
        keys.emplace_back(span.step, span.phase, lane, span.shard);
      }
    }
    return keys;
  };
  const std::vector<Key> one_shard = trace(true);
  EXPECT_EQ(one_shard, trace(false));
  ASSERT_EQ(one_shard.size(), 50u * core::kStepPhaseCount);
  for (const Key& key : one_shard) {
    EXPECT_EQ(std::get<3>(key), obs::kSerialShard);
  }
}

}  // namespace
}  // namespace lgg
