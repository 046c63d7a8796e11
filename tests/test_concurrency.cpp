// Concurrency coverage for the executor hot path (DESIGN.md §8): striped
// resident-set and KV-store hammers, multi-threaded drains that must deliver
// exactly once, claim-cursor contention on large per-GPU demand, zero-copy
// KV payload sharing, and directory-routed remote fetches that contact only
// the recorded holder.
// These tests are the payload of the TSan CI job (LOBSTER_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "comm/bus.hpp"
#include "comm/fault.hpp"
#include "common/mpmc_ring.hpp"
#include "common/payload_arena.hpp"
#include "common/striped_set.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace lobster::runtime {
namespace {

std::vector<std::byte> payload_for(SampleId s, std::size_t size) {
  return std::vector<std::byte>(size, static_cast<std::byte>(s & 0xFF));
}

TEST(StripedSetConcurrency, DisjointRangesSurviveHammer) {
  StripedSet<SampleId> set(16);
  constexpr unsigned kThreads = 4;
  constexpr SampleId kPerThread = 2000;
  std::vector<std::jthread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&set, t] {
      const SampleId base = t * kPerThread;
      for (SampleId i = 0; i < kPerThread; ++i) EXPECT_TRUE(set.insert(base + i));
      for (SampleId i = 0; i < kPerThread; ++i) EXPECT_TRUE(set.contains(base + i));
      // Erase the odd half; probe a neighbour's range concurrently (any
      // answer is fine, it must just not crash or corrupt).
      for (SampleId i = 1; i < kPerThread; i += 2) EXPECT_TRUE(set.erase(base + i));
      const SampleId neighbour = ((t + 1) % kThreads) * kPerThread;
      for (SampleId i = 0; i < 64; ++i) (void)set.contains(neighbour + i);
    });
  }
  workers.clear();  // join
  EXPECT_EQ(set.size(), kThreads * kPerThread / 2);
  for (SampleId i = 0; i < kPerThread; i += 2) EXPECT_TRUE(set.contains(i));
}

TEST(KvStoreConcurrency, PutGetEraseHammer) {
  cache::KvStore store(16);
  constexpr unsigned kThreads = 4;
  constexpr SampleId kPerThread = 1000;
  std::vector<std::jthread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      const SampleId base = t * kPerThread;
      for (SampleId i = 0; i < kPerThread; ++i) {
        store.put(base + i, payload_for(base + i, 64 + (i % 7)));
      }
      for (SampleId i = 0; i < kPerThread; ++i) {
        const auto payload = store.get(base + i);
        ASSERT_TRUE(payload.ok());
        EXPECT_EQ((*payload)->size(), 64 + (i % 7));
        EXPECT_EQ((**payload)[0], static_cast<std::byte>((base + i) & 0xFF));
      }
      for (SampleId i = 1; i < kPerThread; i += 2) EXPECT_TRUE(store.erase(base + i));
      // Cross-range reads race with the owner's writes: a miss or a fully
      // formed payload are both acceptable, torn state is not.
      const SampleId neighbour = ((t + 1) % kThreads) * kPerThread;
      for (SampleId i = 0; i < 128; ++i) {
        if (const auto payload = store.get(neighbour + i)) {
          EXPECT_EQ((**payload)[0], static_cast<std::byte>((neighbour + i) & 0xFF));
        }
      }
    });
  }
  workers.clear();  // join
  EXPECT_EQ(store.size(), kThreads * kPerThread / 2);
  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, kThreads * kPerThread);
  EXPECT_EQ(stats.erases, kThreads * kPerThread / 2);
}

TEST(KvStoreConcurrency, GetIsZeroCopy) {
  cache::KvStore store(4);
  store.put(7, payload_for(7, 4096));
  const auto a = store.get(7);
  const auto b = store.get(7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both handles alias the one stored payload — a hit is a refcount bump,
  // never a byte copy.
  EXPECT_EQ((*a).get(), (*b).get());
  // An erase drops the store's reference but readers keep theirs alive.
  EXPECT_TRUE(store.erase(7));
  EXPECT_FALSE(store.get(7).ok());
  EXPECT_EQ((*a)->size(), 4096U);
}

/// Single-node plan with `threads_per_gpu` planned loading threads per queue
/// and no prefetches/evictions — pure demand-path drains.
Plan drain_plan(std::uint16_t nodes, std::uint16_t gpus, std::uint32_t iters,
                std::uint32_t batch, std::uint32_t threads_per_gpu) {
  Plan plan;
  plan.cluster_nodes = nodes;
  plan.gpus_per_node = gpus;
  plan.epochs = 1;
  plan.iterations_per_epoch = iters;
  plan.batch_size = batch;
  plan.seed = 7;
  for (IterId i = 0; i < iters; ++i) {
    IterationPlan iteration;
    iteration.iter = i;
    iteration.nodes.resize(nodes);
    for (auto& node : iteration.nodes) {
      node.preproc_threads = 1;
      node.load_threads.assign(gpus, threads_per_gpu);
    }
    plan.iterations.push_back(iteration);
  }
  return plan;
}

data::EpochSampler make_sampler(std::uint32_t num_samples, std::uint16_t nodes,
                                std::uint16_t gpus, std::uint32_t batch) {
  data::SamplerConfig config;
  config.num_samples = num_samples;
  config.nodes = nodes;
  config.gpus_per_node = gpus;
  config.batch_size = batch;
  config.seed = 7;
  return data::EpochSampler(config);
}

TEST(ExecutorConcurrency, MultiThreadedDrainDeliversExactlyOnce) {
  // 3 planned threads per queue and a pinned 6-thread pool: several OS
  // threads really do race on each queue regardless of the host's core
  // count. Exactly-once delivery must survive the contention.
  constexpr std::uint16_t kGpus = 2;
  constexpr std::uint32_t kIters = 8;
  constexpr std::uint32_t kBatch = 64;
  const Plan plan = drain_plan(1, kGpus, kIters, kBatch, 3);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(kIters * kGpus * kBatch, 2048),
                                    plan.seed);
  const auto sampler = make_sampler(catalog.size(), 1, kGpus, kBatch);

  ExecutorConfig config;
  config.node = 0;
  config.balance.max_pool_threads = 6;
  PlanExecutor executor(config, catalog, sampler, plan);
  const auto report = executor.run();

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.duplicate_deliveries, 0U);
  EXPECT_EQ(report.lost_deliveries, 0U);
  EXPECT_EQ(report.samples_delivered,
            static_cast<std::uint64_t>(kIters) * kGpus * kBatch);
}

TEST(ExecutorConcurrency, ClaimCursorDeliversLargeDemandExactlyOnce) {
  // Per-GPU demand of 5000 is many kDrainBatch chunks, and 4 planned threads
  // per GPU on an 8-thread pool race on each GPU's claim cursor. Every
  // request must be delivered once, and every one must pass through both
  // queue counters (the heartbeat's queue_starved flag reads them).
  constexpr std::uint16_t kGpus = 2;
  constexpr std::uint32_t kIters = 2;
  constexpr std::uint32_t kBatch = 5000;
  const Plan plan = drain_plan(1, kGpus, kIters, kBatch, 4);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(kIters * kGpus * kBatch, 256),
                                    plan.seed);
  const auto sampler = make_sampler(catalog.size(), 1, kGpus, kBatch);

  ExecutorConfig config;
  config.node = 0;
  config.balance.max_pool_threads = 8;
  PlanExecutor executor(config, catalog, sampler, plan);
  auto& registry = telemetry::MetricRegistry::instance();
  auto& tracer = telemetry::Tracer::instance();
  [[maybe_unused]] const std::uint64_t pushes_before = registry.counter("queue.pushes").value();
  [[maybe_unused]] const std::uint64_t pops_before = registry.counter("queue.pops").value();
  // LOBSTER_METRIC_COUNT is a no-op unless metrics are armed.
  tracer.set_metrics_enabled(true);
  const auto report = executor.run();
  tracer.set_metrics_enabled(false);

  const std::uint64_t demanded = static_cast<std::uint64_t>(kIters) * kGpus * kBatch;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.samples_delivered, demanded);
  for (const auto& iteration : report.iterations) {
    EXPECT_EQ(iteration.demand_requests, kGpus * kBatch);
  }
#if !defined(LOBSTER_TELEMETRY_DISABLED)
  EXPECT_EQ(registry.counter("queue.pushes").value() - pushes_before, demanded);
  EXPECT_EQ(registry.counter("queue.pops").value() - pops_before, demanded);
#endif  // LOBSTER_TELEMETRY_DISABLED
}

TEST(ExecutorConcurrency, DirectoryRoutesRemoteFetchesToRecordedHolderOnly) {
  // Three-node cluster, two peers both able to serve every sample. The
  // directory records node 2 as the holder; with routing wired in, node 1
  // must never see a single request — the remote-miss path costs O(1)
  // lookups, independent of cluster size. (The legacy poll would have asked
  // node 1 first, in rank order.)
  constexpr std::uint16_t kNodes = 3;
  constexpr std::uint16_t kGpus = 2;
  constexpr std::uint32_t kIters = 4;
  constexpr std::uint32_t kBatch = 16;
  const Plan plan = drain_plan(kNodes, kGpus, kIters, kBatch, 2);
  const data::SampleCatalog catalog(
      data::DatasetSpec::uniform(kNodes * kIters * kGpus * kBatch, 1024), plan.seed);
  const auto sampler = make_sampler(catalog.size(), kNodes, kGpus, kBatch);

  cache::CacheDirectory directory(kNodes);
  for (SampleId s = 0; s < catalog.size(); ++s) directory.add(s, 2);

  comm::MessageBus bus(kNodes);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr);
  const auto serves_all = [](SampleId) { return true; };
  const auto sizes = [&catalog](SampleId s) { return catalog.sample_bytes(s); };
  DistributionManager peer1(bus.endpoint(1), serves_all, sizes);
  DistributionManager peer2(bus.endpoint(2), serves_all, sizes);
  peer1.start();
  peer2.start();

  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, plan);
  executor.set_manager(&client);
  executor.set_directory(&directory);
  const auto report = executor.run();
  peer1.stop();
  peer2.stop();

  EXPECT_TRUE(report.clean());
  std::uint64_t remote = 0;
  std::uint64_t pfs = 0;
  for (const auto& iteration : report.iterations) {
    remote += iteration.remote_fetches;
    pfs += iteration.pfs_fetches;
  }
  EXPECT_GT(remote, 0U);
  EXPECT_EQ(pfs, 0U);  // every miss was served by the recorded holder
  EXPECT_EQ(peer1.served_requests(), 0U);
  EXPECT_EQ(peer1.failed_requests(), 0U);
  EXPECT_EQ(peer2.served_requests(), remote);
}

TEST(ExecutorConcurrency, WithoutDirectoryRemoteMissesSkipPeersEntirely) {
  // Contrast case for the test above: routing is directory-or-nothing. With
  // no residency map wired in, remote-planned misses go straight to the PFS
  // — no peer sees a single request. (The legacy fallback that polled every
  // peer in rank order is gone: it hid O(world) traffic behind a default.)
  constexpr std::uint16_t kNodes = 3;
  constexpr std::uint16_t kGpus = 2;
  constexpr std::uint32_t kIters = 2;
  constexpr std::uint32_t kBatch = 16;
  const Plan plan = drain_plan(kNodes, kGpus, kIters, kBatch, 2);
  const data::SampleCatalog catalog(
      data::DatasetSpec::uniform(kNodes * kIters * kGpus * kBatch, 1024), plan.seed);
  const auto sampler = make_sampler(catalog.size(), kNodes, kGpus, kBatch);

  comm::MessageBus bus(kNodes);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr);
  const auto serves_all = [](SampleId) { return true; };
  const auto sizes = [&catalog](SampleId s) { return catalog.sample_bytes(s); };
  DistributionManager peer1(bus.endpoint(1), serves_all, sizes);
  DistributionManager peer2(bus.endpoint(2), serves_all, sizes);
  peer1.start();
  peer2.start();

  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, plan);
  executor.set_manager(&client);
  const auto report = executor.run();
  peer1.stop();
  peer2.stop();

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(peer1.served_requests(), 0U);
  EXPECT_EQ(peer2.served_requests(), 0U);
  std::uint64_t pfs = 0;
  for (const auto& iteration : report.iterations) pfs += iteration.pfs_fetches;
  EXPECT_GT(pfs, 0U);  // every first-touch miss was materialized from the PFS
}

TEST(DirectoryConcurrency, DownMaskFlipsRaceWithRoutingQueries) {
  // The down-mask is the only directory state the executor mutates from
  // loading threads (mark_node_down on a timed-out peer), so flips must be
  // safe against concurrent peer_holder/held_elsewhere readers. Any answer a
  // reader gets is fine — it must just never be a torn one, and it must never
  // name the permanently-down node once the writer has marked it.
  constexpr std::uint16_t kNodes = 8;
  constexpr SampleId kSamples = 512;
  cache::CacheDirectory directory(kNodes);
  for (SampleId s = 0; s < kSamples; ++s) {
    directory.add(s, static_cast<std::uint16_t>(s % kNodes));
    directory.add(s, static_cast<std::uint16_t>((s + 1) % kNodes));
  }
  directory.mark_node_down(3);  // down before any reader starts

  std::vector<std::jthread> workers;
  workers.emplace_back([&directory] {
    for (int round = 0; round < 2000; ++round) {
      directory.mark_node_down(static_cast<std::uint16_t>(round % 3 + 4));
      directory.revive_node(static_cast<std::uint16_t>(round % 3 + 4));
    }
  });
  for (unsigned t = 0; t < 3; ++t) {
    workers.emplace_back([&directory, t] {
      for (SampleId s = 0; s < kSamples * 4; ++s) {
        const auto holder =
            directory.peer_holder(s % kSamples, static_cast<std::uint16_t>(t));
        EXPECT_NE(holder, 3);  // never routed to the permanently-down node
        (void)directory.held_elsewhere(s % kSamples, static_cast<std::uint16_t>(t));
        (void)directory.sole_holder(s % kSamples, static_cast<std::uint16_t>(t));
      }
    });
  }
  workers.clear();  // join
  EXPECT_TRUE(directory.node_down(3));
  EXPECT_EQ(directory.down_count(), 1U);  // every flapped node was revived
}

TEST(FetchConcurrency, SharedManagerSurvivesConcurrentFetchesFromADeadPeer) {
  // Several loading threads discover the same dead peer at once: every fetch
  // must fail with kTimeout or kPeerDown (never hang, never a torn breaker),
  // and the shared breaker must end up open.
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  fault.kill(1);

  FetchPolicy policy;
  policy.timeout = 0.02;
  policy.max_retries = 1;
  policy.backoff_base = 0.002;
  policy.backoff_cap = 0.005;
  policy.breaker_threshold = 2;
  policy.breaker_cooldown = 60.0;
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);

  constexpr unsigned kThreads = 6;
  std::atomic<unsigned> timeouts{0};
  std::atomic<unsigned> peer_down{0};
  std::atomic<unsigned> other{0};
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (SampleId s = 0; s < 4; ++s) {
          const auto result = client.fetch_remote(t * 100 + s, 1);
          ASSERT_FALSE(result.ok());
          switch (result.status().code()) {
            case StatusCode::kTimeout: timeouts.fetch_add(1); break;
            case StatusCode::kPeerDown: peer_down.fetch_add(1); break;
            default: other.fetch_add(1); break;
          }
        }
      });
    }
  }
  EXPECT_EQ(other.load(), 0U);
  EXPECT_EQ(timeouts.load() + peer_down.load(), kThreads * 4);
  EXPECT_GT(timeouts.load(), 0U);   // somebody burned a real timeout
  EXPECT_GT(peer_down.load(), 0U);  // the opened breaker failed others fast
  EXPECT_TRUE(client.breaker_open(1));
  EXPECT_GE(client.timeouts(), policy.breaker_threshold);
}

TEST(MpmcRingConcurrency, MultiProducerMultiConsumerConservesItems) {
  // The comm-lane primitive under the contention it actually sees: several
  // pool workers pushing through one endpoint while the receiver (and a
  // serve thread) pop. Every pushed value must come out exactly once.
  MpmcRing<std::uint64_t> ring(64);
  constexpr unsigned kProducers = 3;
  constexpr unsigned kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 4000;
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};
  std::atomic<bool> done{false};
  {
    std::vector<std::jthread> workers;
    for (unsigned c = 0; c < kConsumers; ++c) {
      workers.emplace_back([&] {
        std::uint64_t value = 0;
        while (true) {
          if (ring.try_pop(value)) {
            popped_sum.fetch_add(value, std::memory_order_relaxed);
            popped_count.fetch_add(1, std::memory_order_relaxed);
          } else if (done.load(std::memory_order_acquire) && ring.empty()) {
            break;
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    {
      std::vector<std::jthread> producers;
      for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ring, p] {
          for (std::uint64_t i = 0; i < kPerProducer; ++i) {
            std::uint64_t value = p * kPerProducer + i;
            while (!ring.try_push(std::move(value))) std::this_thread::yield();
          }
        });
      }
    }
    done.store(true, std::memory_order_release);
  }
  const std::uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), total);
  EXPECT_EQ(popped_sum.load(), total * (total - 1) / 2);
}

TEST(MpmcRingConcurrency, FullRingFailsPushWithoutConsumingValue) {
  MpmcRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(1)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto extra = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(extra)));
  ASSERT_NE(extra, nullptr);  // a failed push must leave the value intact
  EXPECT_EQ(*extra, 3);
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 1);
}

TEST(PayloadArenaConcurrency, AcquireReleaseHammerRecyclesCleanly) {
  // Loading threads churn arena buffers across size classes (plus one
  // oversize class) while handing some to a sibling thread to release —
  // exercising the TLS slab -> shared pool -> heap ladder from both ends.
  constexpr unsigned kThreads = 4;
  constexpr int kRounds = 400;
  comm::PayloadPtr shared_sink;  // buffers crossing threads via PayloadPtr
  std::mutex sink_mutex;
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t sizes[] = {64, 300, 4096, PayloadArena::kMaxClassBytes,
                                     PayloadArena::kMaxClassBytes + 1};
        for (int round = 0; round < kRounds; ++round) {
          const std::size_t size = sizes[(static_cast<std::size_t>(round) + t) % 5];
          auto buffer = PayloadArena::acquire(size);
          ASSERT_EQ(buffer->size(), size);
          (*buffer)[0] = static_cast<std::byte>(t);
          (*buffer)[size - 1] = static_cast<std::byte>(round & 0xFF);
          if (round % 7 == 0) {
            const std::scoped_lock lock(sink_mutex);
            shared_sink = comm::PayloadPtr(std::move(buffer));  // released elsewhere
          }
        }
      });
    }
  }
  shared_sink.reset();
  const auto stats = PayloadArena::stats();
  EXPECT_GT(stats.tls_hits + stats.pool_hits, 0U);  // recycling actually happened
  // Recycled buffers must come back sized to the request, not to the class.
  auto small = PayloadArena::acquire(17);
  EXPECT_EQ(small->size(), 17U);
}

}  // namespace
}  // namespace lobster::runtime
