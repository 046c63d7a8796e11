// Online runtime: payloads, distribution manager over the
// bus, plan execution end-to-end (planner -> executor).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "baselines/strategies.hpp"
#include "cache/directory.hpp"
#include "core/planner.hpp"
#include "data/dataset.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::runtime {
namespace {

TEST(SamplePayload, RoundTripsAndDetectsCorruption) {
  auto payload = make_sample_payload(1234, 4096);
  EXPECT_EQ(payload.size(), 4096U);
  EXPECT_TRUE(verify_sample_payload(1234, payload));
  EXPECT_FALSE(verify_sample_payload(1235, payload));
  payload[100] ^= std::byte{0xFF};
  EXPECT_FALSE(verify_sample_payload(1234, payload));
}

TEST(SamplePayload, DifferentSamplesDiffer) {
  EXPECT_NE(make_sample_payload(1, 256), make_sample_payload(2, 256));
}

TEST(SamplePayload, TinyPayloads) {
  EXPECT_TRUE(verify_sample_payload(9, make_sample_payload(9, 0)));
  EXPECT_TRUE(verify_sample_payload(9, make_sample_payload(9, 2)));
}

TEST(DistributionManager, ServesHeldSamples) {
  comm::MessageBus bus(2);
  DistributionManager server(bus.endpoint(1), [](SampleId s) { return s == 42; },
                             [](SampleId) { return Bytes{512}; });
  server.start();
  DistributionManager client(bus.endpoint(0), nullptr, nullptr);

  const auto payload = client.fetch_remote(42, 1);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->size(), 512U);
  EXPECT_TRUE(verify_sample_payload(42, *payload));
  EXPECT_EQ(server.served_requests(), 1U);

  const auto missing = client.fetch_remote(7, 1);
  EXPECT_FALSE(missing.has_value());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);  // authoritative miss, not a timeout
  EXPECT_EQ(server.failed_requests(), 1U);
  server.stop();
}

TEST(DistributionManager, BidirectionalServing) {
  comm::MessageBus bus(2);
  DistributionManager node0(bus.endpoint(0), [](SampleId s) { return s % 2 == 0; },
                            [](SampleId) { return Bytes{128}; });
  DistributionManager node1(bus.endpoint(1), [](SampleId s) { return s % 2 == 1; },
                            [](SampleId) { return Bytes{128}; });
  node0.start();
  node1.start();
  EXPECT_TRUE(node0.fetch_remote(3, 1).has_value());   // odd held by node 1
  EXPECT_TRUE(node1.fetch_remote(4, 0).has_value());   // even held by node 0
  EXPECT_FALSE(node0.fetch_remote(4, 1).has_value());  // node 1 lacks evens
  node0.stop();
  node1.stop();
}

TEST(DistributionManager, StopIsIdempotent) {
  comm::MessageBus bus(1);
  DistributionManager manager(bus.endpoint(0), nullptr, nullptr);
  manager.start();
  manager.stop();
  manager.stop();
}

// ---- end-to-end: plan a small Lobster run, execute it with real threads.

struct ExecutorFixture : public ::testing::Test {
  static pipeline::ExperimentPreset small_preset() {
    auto preset = pipeline::preset_imagenet1k_single_node(4000.0);
    preset.epochs = 2;
    preset.cluster.gpus_per_node = 2;
    preset.cluster.cpu_threads = 16;
    preset.batch_size = 4;
    return preset;
  }
};

TEST_F(ExecutorFixture, PlannerProducesCompletePlan) {
  const auto preset = small_preset();
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());
  const auto& plan = planned.plan;
  EXPECT_EQ(plan.cluster_nodes, 1);
  EXPECT_EQ(plan.gpus_per_node, 2);
  EXPECT_EQ(plan.epochs, 2U);
  ASSERT_EQ(plan.total_iterations(),
            static_cast<std::size_t>(plan.epochs) * plan.iterations_per_epoch);
  for (const auto& iteration : plan.iterations) {
    ASSERT_EQ(iteration.nodes.size(), 1U);
    EXPECT_EQ(iteration.nodes[0].load_threads.size(), 2U);
    EXPECT_GE(iteration.nodes[0].preproc_threads, 1U);
  }
  EXPECT_GT(plan.total_prefetches(), 0U);
}

TEST_F(ExecutorFixture, ExecutesPlanCleanly) {
  const auto preset = small_preset();
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());

  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = preset.cluster.nodes;
  sampler_config.gpus_per_node = preset.cluster.gpus_per_node;
  sampler_config.batch_size = preset.batch_size;
  sampler_config.seed = preset.seed;
  const data::EpochSampler sampler(sampler_config);

  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, planned.plan);
  const auto report = executor.run();

  EXPECT_TRUE(report.clean());
  const std::uint64_t expected_demand = static_cast<std::uint64_t>(planned.plan.epochs) *
                                        planned.plan.iterations_per_epoch * 2 *
                                        preset.batch_size;
  EXPECT_EQ(report.samples_delivered, expected_demand);
  EXPECT_EQ(report.iterations.size(), planned.plan.total_iterations());
  EXPECT_GT(report.virtual_total, 0.0);

  // After the cold first iterations, prefetching should produce local hits.
  std::uint64_t hits = 0;
  for (const auto& iteration : report.iterations) hits += iteration.local_hits;
  EXPECT_GT(hits, 0U);
}

TEST_F(ExecutorFixture, ExecutorValidatesArguments) {
  const auto preset = small_preset();
  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = 1;
  sampler_config.gpus_per_node = 2;
  sampler_config.batch_size = 4;
  const data::EpochSampler sampler(sampler_config);
  const Plan empty;
  ExecutorConfig config;
  EXPECT_THROW(PlanExecutor(config, catalog, sampler, empty), std::invalid_argument);
}

// ---- plan prefetches land before the next iteration classifies its demand.

struct PlannedRun {
  core::PlannerResult planned;
  data::SampleCatalog catalog;
  data::EpochSampler sampler;

  static data::SamplerConfig sampler_config(const pipeline::ExperimentPreset& preset,
                                            std::uint32_t samples) {
    data::SamplerConfig config;
    config.num_samples = samples;
    config.nodes = preset.cluster.nodes;
    config.gpus_per_node = preset.cluster.gpus_per_node;
    config.batch_size = preset.batch_size;
    config.seed = preset.seed;
    return config;
  }

  explicit PlannedRun(const pipeline::ExperimentPreset& preset)
      : planned(core::plan_training(preset, baselines::LoaderStrategy::pytorch())),
        catalog(preset.dataset, preset.seed),
        sampler(sampler_config(preset, catalog.size())) {}

  ExecutionReport run() const {
    ExecutorConfig config;
    config.node = 0;
    PlanExecutor executor(config, catalog, sampler, planned.plan);
    return executor.run();
  }
};

TEST_F(ExecutorFixture, PrefetchedSamplesAreLocalHitsNextIteration) {
  const PlannedRun setup(small_preset());
  const Plan& plan = setup.planned.plan;
  const auto report = setup.run();
  ASSERT_TRUE(report.clean());
  ASSERT_EQ(report.iterations.size(), plan.total_iterations());

  std::uint64_t prefetched_demand_total = 0;
  for (std::size_t i = 0; i + 1 < plan.iterations.size(); ++i) {
    const auto& prefetches = plan.iterations[i].nodes[0].prefetches;
    const std::unordered_set<SampleId> staged(prefetches.begin(), prefetches.end());
    const IterId next = plan.iterations[i + 1].iter;
    const auto epoch = static_cast<std::uint32_t>(next / plan.iterations_per_epoch);
    const auto h = static_cast<std::uint32_t>(next % plan.iterations_per_epoch);
    std::uint32_t prefetched_demand = 0;
    for (GpuId g = 0; g < plan.gpus_per_node; ++g) {
      for (const SampleId s : setup.sampler.minibatch(epoch, h, 0, g)) {
        prefetched_demand += staged.count(s) > 0 ? 1U : 0U;
      }
    }
    EXPECT_GE(report.iterations[i + 1].local_hits, prefetched_demand) << "iteration " << next;
    prefetched_demand_total += prefetched_demand;
  }
  // The PyTorch plan stages the next minibatch, so the bound is not vacuous.
  EXPECT_GT(prefetched_demand_total, 0U);
}

TEST_F(ExecutorFixture, TierCountsAreDeterministicAcrossRuns) {
  const PlannedRun setup(small_preset());
  const auto first = setup.run();
  const auto second = setup.run();
  ASSERT_EQ(first.iterations.size(), second.iterations.size());
  for (std::size_t i = 0; i < first.iterations.size(); ++i) {
    const auto& a = first.iterations[i];
    const auto& b = second.iterations[i];
    EXPECT_EQ(a.local_hits, b.local_hits) << "iteration " << a.iter;
    EXPECT_EQ(a.remote_fetches, b.remote_fetches) << "iteration " << a.iter;
    EXPECT_EQ(a.pfs_fetches, b.pfs_fetches) << "iteration " << a.iter;
  }
}

TEST(PlanExecutor, RemotePrefetchesForOneHolderRideOneMultiGetEnvelope) {
  // Node 0's plan stages 10 samples the directory places on node 1; its
  // demand samples are not in the directory, so they go to the PFS.
  constexpr Bytes kSampleBytes = 4096;
  constexpr std::size_t kPrefetches = 10;

  const data::SampleCatalog catalog(data::DatasetSpec::uniform(64, kSampleBytes), 7);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = 64;
  sampler_config.nodes = 2;
  sampler_config.gpus_per_node = 1;
  sampler_config.batch_size = 2;
  sampler_config.seed = 7;
  const data::EpochSampler sampler(sampler_config);

  Plan plan;
  plan.cluster_nodes = 2;
  plan.gpus_per_node = 1;
  plan.epochs = 1;
  plan.iterations_per_epoch = sampler.iterations_per_epoch();
  plan.batch_size = 2;
  plan.seed = 7;
  IterationPlan iteration;
  iteration.iter = 0;
  iteration.nodes.resize(2);
  iteration.nodes[0].load_threads = {1};
  const auto demand = sampler.minibatch(0, 0, 0, 0);
  cache::CacheDirectory directory(2);
  for (SampleId s = 0; iteration.nodes[0].prefetches.size() < kPrefetches; ++s) {
    if (std::find(demand.begin(), demand.end(), s) != demand.end()) continue;
    iteration.nodes[0].prefetches.push_back(s);
    directory.add(s, 1);
  }
  plan.iterations.push_back(iteration);
  const std::vector<SampleId> prefetched = iteration.nodes[0].prefetches;

  comm::MessageBus bus(2);
  DistributionManager holder(bus.endpoint(1), [](SampleId) { return true; },
                             [&catalog](SampleId s) { return catalog.sample_bytes(s); });
  holder.start();
  DistributionManager client(bus.endpoint(0), nullptr, nullptr);
  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, plan, &client);
  executor.set_directory(&directory);

  auto& spans = telemetry::SpanLog::instance();
  spans.clear();
  spans.set_enabled(true);
  const auto report = executor.run();
  spans.set_enabled(false);
  const auto records = spans.snapshot();
  spans.clear();
  holder.stop();

  ASSERT_TRUE(report.clean());
  ASSERT_EQ(report.iterations.size(), 1U);
  EXPECT_EQ(report.iterations[0].prefetch_requests, kPrefetches);
  std::unordered_set<std::uint64_t> envelopes;
  for (const auto& span : records) {
    if (span.rank != 0 || span.kind != telemetry::SpanKind::kMultiGet) continue;
    EXPECT_EQ(span.parent_span_id, 0U);  // a root of its own
    EXPECT_EQ(span.arg, 1U);             // the holder
    envelopes.insert(span.span_id);
  }
  std::size_t batched = 0;
  for (const auto& span : records) {
    if (span.kind == telemetry::SpanKind::kAttempt && envelopes.count(span.parent_span_id) > 0) {
      batched += span.arg;  // samples in the envelope
    }
    if (span.rank == 0 && span.kind == telemetry::SpanKind::kFetch) {
      EXPECT_EQ(std::find(prefetched.begin(), prefetched.end(), span.arg), prefetched.end())
          << "prefetch of sample " << span.arg << " took a per-sample fetch";
    }
  }
  EXPECT_EQ(envelopes.size(), 1U);
  EXPECT_EQ(batched, kPrefetches);
  const auto resident = executor.resident_samples();
  for (const SampleId s : prefetched) EXPECT_TRUE(resident.count(s) > 0) << s;
}

}  // namespace
}  // namespace lobster::runtime

// ---- plan serialization (appended coverage).

#include "runtime/plan_io.hpp"

namespace lobster::runtime {
namespace {

Plan small_plan() {
  Plan plan;
  plan.cluster_nodes = 2;
  plan.gpus_per_node = 2;
  plan.epochs = 1;
  plan.iterations_per_epoch = 2;
  plan.batch_size = 4;
  plan.seed = 99;
  for (IterId i = 0; i < 2; ++i) {
    IterationPlan iteration;
    iteration.iter = i;
    iteration.nodes.resize(2);
    for (auto& node : iteration.nodes) {
      node.preproc_threads = 6;
      node.load_threads = {3, 5};
      node.prefetches = {10, 20, 30};
      node.evictions = {7};
    }
    plan.iterations.push_back(iteration);
  }
  return plan;
}

TEST(PlanIo, RoundTripsExactly) {
  const Plan original = small_plan();
  const auto bytes = serialize_plan(original);
  const auto decoded = deserialize_plan(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  const Plan& loaded = *decoded;
  EXPECT_EQ(loaded.cluster_nodes, original.cluster_nodes);
  EXPECT_EQ(loaded.gpus_per_node, original.gpus_per_node);
  EXPECT_EQ(loaded.epochs, original.epochs);
  EXPECT_EQ(loaded.iterations_per_epoch, original.iterations_per_epoch);
  EXPECT_EQ(loaded.batch_size, original.batch_size);
  EXPECT_EQ(loaded.seed, original.seed);
  ASSERT_EQ(loaded.iterations.size(), original.iterations.size());
  for (std::size_t i = 0; i < loaded.iterations.size(); ++i) {
    EXPECT_EQ(loaded.iterations[i].iter, original.iterations[i].iter);
    ASSERT_EQ(loaded.iterations[i].nodes.size(), 2U);
    for (std::size_t n = 0; n < 2; ++n) {
      EXPECT_EQ(loaded.iterations[i].nodes[n].preproc_threads, 6U);
      EXPECT_EQ(loaded.iterations[i].nodes[n].load_threads,
                original.iterations[i].nodes[n].load_threads);
      EXPECT_EQ(loaded.iterations[i].nodes[n].prefetches,
                original.iterations[i].nodes[n].prefetches);
      EXPECT_EQ(loaded.iterations[i].nodes[n].evictions,
                original.iterations[i].nodes[n].evictions);
    }
  }
}

TEST(PlanIo, FileRoundTrip) {
  const Plan original = small_plan();
  const std::string path = ::testing::TempDir() + "/lobster_plan.bin";
  ASSERT_TRUE(save_plan(original, path).ok());
  const auto loaded = load_plan(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->total_prefetches(), original.total_prefetches());
}

TEST(PlanIo, RejectsBadMagicAndVersion) {
  auto bytes = serialize_plan(small_plan());
  auto corrupted = bytes;
  corrupted[0] = std::byte{0x00};
  EXPECT_EQ(deserialize_plan(corrupted).status().code(), StatusCode::kCorrupt);
  corrupted = bytes;
  corrupted[4] = std::byte{0xFF};  // version
  EXPECT_EQ(deserialize_plan(corrupted).status().code(), StatusCode::kCorrupt);
}

TEST(PlanIo, RejectsTruncation) {
  const auto bytes = serialize_plan(small_plan());
  for (const std::size_t keep : {std::size_t{3}, std::size_t{16}, bytes.size() - 1}) {
    std::vector<std::byte> truncated(bytes.begin(), bytes.begin() + keep);
    EXPECT_EQ(deserialize_plan(truncated).status().code(), StatusCode::kCorrupt)
        << "keep=" << keep;
  }
}

TEST(PlanIo, RejectsTrailingGarbage) {
  auto bytes = serialize_plan(small_plan());
  bytes.push_back(std::byte{0x42});
  EXPECT_EQ(deserialize_plan(bytes).status().code(), StatusCode::kCorrupt);
}

TEST(PlanIo, RejectsMissingFile) {
  EXPECT_EQ(load_plan("/nonexistent/path/plan.bin").status().code(), StatusCode::kNotFound);
}

TEST(PlanIo, PlannedRealPlanSurvivesRoundTripAndExecutes) {
  auto preset = pipeline::preset_imagenet1k_single_node(4000.0);
  preset.epochs = 1;
  preset.cluster.gpus_per_node = 2;
  preset.cluster.cpu_threads = 8;
  preset.batch_size = 4;
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());
  const std::string path = ::testing::TempDir() + "/real_plan.bin";
  ASSERT_TRUE(save_plan(planned.plan, path).ok());
  const auto decoded = load_plan(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  const Plan& loaded = *decoded;

  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = 1;
  sampler_config.gpus_per_node = 2;
  sampler_config.batch_size = 4;
  sampler_config.seed = preset.seed;
  const data::EpochSampler sampler(sampler_config);
  ExecutorConfig executor_config;
  PlanExecutor executor(executor_config, catalog, sampler, loaded);
  const auto report = executor.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.iterations.size(), loaded.total_iterations());
}

}  // namespace
}  // namespace lobster::runtime

// ---- robustness fuzzing: corrupted payloads must fail verification
// (plan decoding is fuzzed by test_wire).

#include "common/rng.hpp"

namespace lobster::runtime {
namespace {

TEST(PayloadFuzz, AnySingleCorruptionIsDetected) {
  const SampleId sample = 777;
  const auto clean = make_sample_payload(sample, 2048);
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = clean;
    const auto pos = static_cast<std::size_t>(rng.bounded(corrupted.size()));
    const auto flip = static_cast<std::byte>(1 + rng.bounded(255));
    corrupted[pos] ^= flip;
    EXPECT_FALSE(verify_sample_payload(sample, corrupted)) << "pos=" << pos;
  }
}

TEST(PayloadFuzz, WrongLengthIsDetected) {
  const auto clean = make_sample_payload(5, 512);
  auto shorter = clean;
  shorter.pop_back();
  EXPECT_FALSE(verify_sample_payload(5, shorter));
  auto longer = clean;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(verify_sample_payload(5, longer));
}

}  // namespace
}  // namespace lobster::runtime

// ---- plan-enforced pool sizing (appended coverage).

namespace lobster::runtime {
namespace {

TEST(PlanExecutor, EnforcesPlannedPoolSizesPerIteration) {
  Plan plan = small_plan();
  // Vary the thread plan across the two iterations.
  plan.iterations[0].nodes[0].load_threads = {2, 2};
  plan.iterations[0].nodes[0].preproc_threads = 3;
  plan.iterations[1].nodes[0].load_threads = {5, 1};
  plan.iterations[1].nodes[0].preproc_threads = 6;

  const data::SampleCatalog catalog(data::DatasetSpec::uniform(64, 256), plan.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = 64;
  sampler_config.nodes = plan.cluster_nodes;
  sampler_config.gpus_per_node = plan.gpus_per_node;
  sampler_config.batch_size = plan.batch_size;
  sampler_config.seed = plan.seed;
  const data::EpochSampler sampler(sampler_config);

  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, plan);
  const auto report = executor.run();
  ASSERT_EQ(report.iterations.size(), 2U);
  EXPECT_EQ(report.iterations[0].load_pool_size, 4U);
  EXPECT_EQ(report.iterations[0].preproc_pool_size, 3U);
  EXPECT_EQ(report.iterations[1].load_pool_size, 6U);
  EXPECT_EQ(report.iterations[1].preproc_pool_size, 6U);
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace lobster::runtime

// ---- KV-store remote backend (appended coverage).

#include "cache/kv_store.hpp"

namespace lobster::runtime {
namespace {

TEST(KvStore, PutGetEraseRoundTrip) {
  cache::KvStore store(4);
  const auto miss = store.get(7);
  EXPECT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.put(7, make_sample_payload(7, 128)).ok());
  ASSERT_TRUE(store.contains(7));
  const auto payload = store.get(7);
  ASSERT_TRUE(payload.ok());
  ASSERT_NE(*payload, nullptr);
  EXPECT_TRUE(verify_sample_payload(7, **payload));
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(store.bytes(), 128U);
  EXPECT_TRUE(store.erase(7));
  EXPECT_FALSE(store.erase(7));
  EXPECT_EQ(store.bytes(), 0U);
  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, 1U);
  EXPECT_EQ(stats.get_hits, 1U);
  EXPECT_EQ(stats.get_misses, 1U);
  EXPECT_EQ(stats.erases, 1U);
}

TEST(KvStore, OverwriteAdjustsBytes) {
  cache::KvStore store(2);
  store.put(1, std::vector<std::byte>(100));
  store.put(1, std::vector<std::byte>(40));
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(store.bytes(), 40U);
}

TEST(KvStore, RejectsNonPowerOfTwoShards) {
  EXPECT_THROW(cache::KvStore(3), std::invalid_argument);
  EXPECT_THROW(cache::KvStore(0), std::invalid_argument);
}

TEST(KvStore, ConcurrentPutsAndGetsAreConsistent) {
  cache::KvStore store(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (SampleId s = 0; s < 200; ++s) {
        store.put(static_cast<SampleId>(t * 1000 + s), make_sample_payload(s, 64));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(store.size(), 800U);
}

TEST(KvStore, ServesAsExecutorRemoteTier) {
  auto preset = pipeline::preset_imagenet1k_single_node(4000.0);
  preset.epochs = 1;
  preset.cluster.nodes = 2;
  preset.cluster.gpus_per_node = 2;
  preset.cluster.cpu_threads = 8;
  preset.batch_size = 4;
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());

  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = 2;
  sampler_config.gpus_per_node = 2;
  sampler_config.batch_size = 4;
  sampler_config.seed = preset.seed;
  const data::EpochSampler sampler(sampler_config);

  cache::KvStore kv(8);
  // Pre-publish half the dataset, as another node's earlier run would.
  for (SampleId s = 0; s < catalog.size(); s += 2) {
    kv.put(s, make_sample_payload(s, catalog.sample_bytes(s)));
  }

  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, planned.plan);
  // Remote-eligible requests: KV hits are served from the store; KV misses
  // go straight to the PFS (no directory is wired in, and peer routing is
  // directory-or-nothing — no manager needed at all for a pure KV tier).
  executor.set_kv_store(&kv);
  const auto report = executor.run();
  EXPECT_TRUE(report.clean());
  std::uint64_t remote = 0;
  for (const auto& iteration : report.iterations) remote += iteration.remote_fetches;
  EXPECT_GT(remote, 0U);  // KV-store hits count as remote-tier service
  EXPECT_GT(kv.stats().get_hits, 0U);
  EXPECT_GT(kv.stats().puts, catalog.size() / 2);  // fetched samples published
}

}  // namespace
}  // namespace lobster::runtime
