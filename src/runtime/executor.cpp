#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cache/namespace.hpp"
#include "common/logging.hpp"
#include "common/strfmt.hpp"
#include "runtime/watchdog.hpp"
#include "telemetry/events.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::runtime {

namespace {
/// Requests popped per queue-lock acquisition in the drain loop. Amortizes
/// the queue mutex without starving sibling workers of the same queue.
constexpr std::size_t kDrainBatch = 32;
}  // namespace

PlanExecutor::PlanExecutor(ExecutorConfig config, const data::SampleCatalog& catalog,
                           const data::EpochSampler& sampler, const Plan& plan,
                           DistributionManager* manager)
    : config_(config), catalog_(catalog), sampler_(sampler), plan_(plan), manager_(manager) {
  if (plan_.empty()) throw std::invalid_argument("PlanExecutor: empty plan");
  if (config_.node >= plan_.cluster_nodes) {
    throw std::invalid_argument("PlanExecutor: node not covered by plan");
  }
  if (const Status status = config_.balance.validate(); !status.ok()) {
    throw std::invalid_argument("PlanExecutor: " + status.to_string());
  }
}

bool PlanExecutor::has_sample(SampleId sample) const { return store_.contains(sample); }

std::unordered_set<SampleId> PlanExecutor::resident_samples() const { return store_.snapshot(); }

void PlanExecutor::execute_request(const LoadRequest& request, GpuAccounting& accounting) {
  const Bytes size = request.bytes;
  if (request.tier == FetchTier::kLocal) {
    accounting.local_bytes += size;
    ++accounting.local_hits;
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_local", size);
    LOBSTER_METRIC_COUNT("executor.local_bytes", size);
    return;
  }

  // Root of this request's causal trace (DESIGN.md §11): every attempt,
  // backoff, detour, serve (on the holder's rank) and PFS fallback below
  // becomes a child span. arg = sample, arg2 = iteration, so the analyzer
  // can group degraded fetches per iteration. Only the non-local tiers are
  // traced — the warm local path above (and its inlined drain-loop twin)
  // never reaches this point.
  telemetry::Span fetch(telemetry::SpanKind::kFetch, config_.node, request.sample);
  fetch.set_arg2(request.iter);

  // Multi-tenant runs address the shared KV tier and directory with keys
  // namespaced to the job's dataset (namespace 0 leaves the key untouched,
  // so single-job runs are byte-identical). The manager's peer fetches stay
  // in raw sample space: peers serve their own job's samples.
  const SampleId key = job_.ns == 0 ? request.sample
                                    : cache::make_namespaced_key(job_.ns, request.sample);
  cache::KvStore::PayloadPtr payload;
  if (request.tier == FetchTier::kRemote && kv_store_ != nullptr) {
    auto kv = kv_store_->get(key);  // zero-copy: shared reference
    if (kv.ok()) {
      // The shared entry is the buffer delivered, so it is verified here
      // once; the manager verifies what it returns the same way.
      payload = kv.take();
      if (config_.verify_payloads && !verify_sample_payload(request.sample, *payload)) {
        // Corruption quarantine (DESIGN.md §9): evict the bad entry so no
        // other worker is served it, then fall through to a fresh fetch.
        (void)kv_store_->erase(key);
        payload.reset();
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine,
                                             config_.node, request.sample, 0, "kv_tier");
      }
    }
  }
  const bool kv_hit = payload != nullptr;
  bool remote_served = kv_hit;
  // Degraded routing (DESIGN.md §9): a holder that times out or trips its
  // circuit breaker is marked down in the directory — taking it out of
  // *every* subsequent routing decision, not just this request — and the
  // fetch detours to the next surviving holder, else falls to the PFS. A
  // holder that answers with a *corrupt* payload is only excluded from this
  // request's routing (the manager's strike counter handles repeat
  // offenders) and the retry goes to the next holder.
  bool failure_detour = false;
  if (!remote_served && request.tier == FetchTier::kRemote && manager_ != nullptr &&
      directory_ != nullptr) {
    // O(1) routing: ask the directory-recorded holder, nobody else. (The
    // old directory-less fallback — polling every peer in rank order — is
    // gone: without a residency map a "remote" request goes straight to the
    // KV tier above and then the PFS below.)
    std::uint64_t exclude_mask = 0;
    NodeId holder = directory_->peer_holder(key, config_.node, exclude_mask);
    while (holder != cache::CacheDirectory::kInvalidNode) {
      auto fetched = manager_->fetch_remote(request.sample, holder);
      if (fetched.ok()) {
        // Already verified by the manager, on this very buffer.
        payload = std::make_shared<const std::vector<std::byte>>(fetched.take());
        remote_served = true;
        break;
      }
      const StatusCode cause = fetched.status().code();
      if (cause == StatusCode::kTimeout || cause == StatusCode::kPeerDown) {
        directory_->mark_node_down(holder);
        failure_detour = true;
        LOBSTER_METRIC_COUNT("executor.peer_down_reroutes", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kNodeDown, holder,
                                             request.sample, request.iter);
        holder = directory_->peer_holder(key, config_.node, exclude_mask);
        telemetry::Span::instant(telemetry::SpanKind::kDetour, config_.node,
                                 request.sample, holder);
        continue;  // next surviving holder (or kInvalidNode -> PFS)
      }
      if (cause == StatusCode::kCorrupt) {
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        LOBSTER_METRIC_COUNT("executor.corrupt_reroutes", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine,
                                             holder, request.sample, request.iter,
                                             "corrupt_reply");
        failure_detour = true;
        exclude_mask |= 1ULL << holder;
        holder = directory_->peer_holder(key, config_.node, exclude_mask);
        telemetry::Span::instant(telemetry::SpanKind::kDetour, config_.node,
                                 request.sample, holder);
        continue;  // next holder with a (hopefully) clean copy
      }
      break;  // authoritative miss / shutdown: PFS fallback
    }
  }
  if (failure_detour) {
    ++accounting.degraded_fetches;
    LOBSTER_METRIC_COUNT("executor.degraded_fetches", 1);
  }
  if (remote_served) {
    accounting.remote_bytes += size;
    ++accounting.remote_fetches;
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_remote", size);
    LOBSTER_METRIC_COUNT("executor.remote_bytes", size);
  } else {
    // PFS path: materialize the sample content locally (by construction
    // this payload verifies — it is the same generator the check uses).
    // Arena-backed: the hot materialize path recycles buffers instead of
    // touching the global heap (common/payload_arena.hpp).
    telemetry::Span pfs(telemetry::SpanKind::kPfsFallback, config_.node, request.sample);
    pfs.set_arg2(request.iter);
    payload = make_sample_payload_shared(request.sample, size);
    accounting.pfs_bytes += size;
    ++accounting.pfs_fetches;
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_pfs", size);
    LOBSTER_METRIC_COUNT("executor.pfs_bytes", size);
  }

  store_.insert(request.sample);
  if (kv_store_ != nullptr && !remote_served) {
    // Best-effort publication: a capacity-bounded store may refuse (the
    // sample is still delivered locally either way). Only verified payloads
    // reach this point, so the KV tier never redistributes garbage.
    (void)kv_store_->put(key, std::move(payload));
  }
}

void PlanExecutor::execute_batch(std::span<const LoadRequest> requests,
                                 GpuAccounting& accounting) {
  // Partition the drained batch: KV hits are served inline; remote misses
  // group per directory-recorded holder for ONE multi-get envelope each;
  // cold misses batch-materialize from the PFS. Anything that needs the
  // full degraded-routing state machine goes through execute_request.
  std::vector<const LoadRequest*> pfs_batch;
  std::vector<const LoadRequest*> fallback;
  std::unordered_map<NodeId, std::vector<const LoadRequest*>> groups;

  for (const auto& request : requests) {
    if (request.tier != FetchTier::kRemote) {
      pfs_batch.push_back(&request);
      continue;
    }
    const SampleId key = job_.ns == 0 ? request.sample
                                      : cache::make_namespaced_key(job_.ns, request.sample);
    if (kv_store_ != nullptr) {
      auto kv = kv_store_->get(key);
      if (kv.ok()) {
        auto payload = kv.take();
        if (!config_.verify_payloads || verify_sample_payload(request.sample, *payload)) {
          accounting.remote_bytes += request.bytes;
          ++accounting.remote_fetches;
          LOBSTER_TRACE_INSTANT(kExecutor, "fetch_remote", request.bytes);
          LOBSTER_METRIC_COUNT("executor.remote_bytes", request.bytes);
          store_.insert(request.sample);
          continue;
        }
        // Corruption quarantine, same as the single path: evict the bad
        // entry and fall through to a fresh remote/PFS fetch.
        (void)kv_store_->erase(key);
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine,
                                             config_.node, request.sample, 0, "kv_tier");
      }
    }
    if (manager_ == nullptr || directory_ == nullptr) {
      // No peer routing wired: a remote miss goes straight to the PFS,
      // exactly as in execute_request.
      pfs_batch.push_back(&request);
      continue;
    }
    const NodeId holder = directory_->peer_holder(key, config_.node, 0);
    if (holder == cache::CacheDirectory::kInvalidNode) {
      pfs_batch.push_back(&request);
      continue;
    }
    if (manager_->breaker_open(holder)) {
      // Known-down holder: the single path's fast-fail -> detour machinery
      // handles it (and counts the degradation).
      fallback.push_back(&request);
      continue;
    }
    groups[holder].push_back(&request);
  }

  // One multi-get envelope per holder. Per-sample failures keep the full
  // single-fetch vocabulary and drop to execute_request, which roots its
  // own kFetch trace (the batch's kMultiGet span is already closed by then).
  std::vector<SampleId> ids;
  for (auto& [holder, group] : groups) {
    if (group.size() < 2) {
      // A singleton batch gains nothing over the single-fetch path (and
      // that path keeps its richer per-sample trace tree).
      for (const LoadRequest* request : group) fallback.push_back(request);
      continue;
    }
    ids.clear();
    ids.reserve(group.size());
    for (const LoadRequest* request : group) ids.push_back(request->sample);
    const IterId iter = group.front()->iter;
    const auto results = manager_->fetch_remote_many(holder, ids, iter);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const LoadRequest& request = *group[i];
      const auto& result = results[i];
      if (result.ok()) {
        // fetch_remote_many verified the buffer it returns.
        accounting.remote_bytes += request.bytes;
        ++accounting.remote_fetches;
        LOBSTER_TRACE_INSTANT(kExecutor, "fetch_remote", request.bytes);
        LOBSTER_METRIC_COUNT("executor.remote_bytes", request.bytes);
        store_.insert(request.sample);
        continue;
      }
      if (result.status().code() == StatusCode::kCorrupt) {
        // The batched reply carried garbage for this sample: quarantine it
        // (never delivered) and re-route via the single path, whose routing
        // excludes repeat offenders through the manager's strike counter.
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        LOBSTER_METRIC_COUNT("executor.corrupt_reroutes", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine, holder,
                                             request.sample, request.iter,
                                             "corrupt_reply");
      }
      // Timeout / peer-down / not-found / shutdown: the single path applies
      // mark-node-down, detours, and the PFS fallback per sample.
      fallback.push_back(&request);
    }
  }

  for (const LoadRequest* request : fallback) execute_request(*request, accounting);

  if (pfs_batch.empty()) return;
  if (telemetry::SpanLog::instance().enabled()) {
    // Spans armed: keep the per-sample kFetch/kPfsFallback trace shape the
    // span-analysis gates are written against.
    for (const LoadRequest* request : pfs_batch) execute_request(*request, accounting);
    return;
  }
  // Batched cold path: materialize straight into arena-backed buffers and
  // publish — no span bookkeeping, no per-sample heap traffic.
  for (const LoadRequest* request : pfs_batch) {
    auto payload = make_sample_payload_shared(request->sample, request->bytes);
    accounting.pfs_bytes += request->bytes;
    ++accounting.pfs_fetches;
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_pfs", request->bytes);
    LOBSTER_METRIC_COUNT("executor.pfs_bytes", request->bytes);
    store_.insert(request->sample);
    if (kv_store_ != nullptr) {
      const SampleId key = job_.ns == 0
                               ? request->sample
                               : cache::make_namespaced_key(job_.ns, request->sample);
      (void)kv_store_->put(key, std::move(payload));
    }
  }
}

ExecutionReport PlanExecutor::run() {
  LOBSTER_TRACE_SPAN_ARG(kExecutor, "executor.run", config_.node);
  ExecutionReport report;
  const std::uint16_t gpus = plan_.gpus_per_node;
  const std::uint32_t I = plan_.iterations_per_epoch;

  const std::uint32_t hw_threads =
      config_.balance.max_pool_threads > 0
          ? config_.balance.max_pool_threads
          : std::max(1U, std::thread::hardware_concurrency());
  // One iteration's plan prefetches, read by the loading pool until the next
  // iteration joins them; declared before the pool so it outlives the
  // pool's workers.
  std::vector<LoadRequest> prefetch_batch;
  ThreadPool loading_pool(1);
  ThreadPool preproc_pool(1);
  const std::uint32_t world =
      static_cast<std::uint32_t>(plan_.cluster_nodes) * gpus;
  const std::uint32_t flat_base = static_cast<std::uint32_t>(config_.node) * gpus;
  throughput_.assign(gpus, metrics::ThroughputWindow());
  feedback_ = core::IterationFeedback{};
  // Per-GPU throughput gauges, interned once rather than looked up by name
  // every iteration.
  auto& registry = telemetry::MetricRegistry::instance();
  std::vector<telemetry::Gauge*> throughput_gauges(gpus);
  for (GpuId g = 0; g < gpus; ++g) {
    throughput_gauges[g] =
        &registry.gauge("executor.gpu/" + std::to_string(flat_base + g) + "/throughput");
  }

  // Hoisted across iterations: the queues are fully drained every iteration,
  // so one construction serves the whole run; vectors below are reused to
  // avoid per-iteration allocation churn.
  GpuRequestQueues queues(gpus, config_.balance.queue_capacity);
  std::vector<GpuAccounting> accounting(gpus);
  std::vector<std::future<void>> futures;
  std::vector<std::future<void>> preproc_futures;
  std::vector<std::future<void>> prefetch_futures;
  std::vector<LoadRequest> enqueue_buffer;
  // Queue-overflow spill: filled single-threaded at enqueue, claimed by the
  // drain workers via a per-GPU atomic cursor (contention-free when empty).
  std::vector<std::vector<LoadRequest>> spill(gpus);
  const std::unique_ptr<std::atomic<std::size_t>[]> spill_next(
      new std::atomic<std::size_t>[gpus]);
  // Worker-local delivery logs, merged per GPU and dedup-checked once per
  // drain (the old global delivered-set mutex was taken per request).
  std::mutex merge_mutex;
  std::vector<std::vector<SampleId>> delivered(gpus);
  std::vector<std::uint64_t> delivered_count(gpus, 0);

  for (const auto& iteration : plan_.iterations) {
    LOBSTER_TRACE_SPAN_ARG(kExecutor, "iteration", iteration.iter);
    const auto iter_started = std::chrono::steady_clock::now();
    // The hook sees last iteration's measurements and may answer with an
    // active rebalance decision for THIS iteration (balancer harnesses run
    // the FeedbackBalancer / RebalanceBarrier exchange inside it).
    core::RebalancePlan rebalance;
    if (config_.iteration_hook) config_.iteration_hook(iteration.iter, feedback_, rebalance);
    // Iteration boundary = the checkpoint consistency point (DESIGN.md §13):
    // the previous iteration's delivery fully landed, this one has not
    // touched the tier. Watchdog paused across the cut so checkpoint I/O
    // can neither fire a spurious stall nor enter the deadline median.
    if (config_.checkpoint_hook) {
      WatchdogPause pause_guard(watchdog_);
      if (config_.checkpoint_hook(iteration.iter)) ++report.checkpoints;
    }
    if (watchdog_ != nullptr) watchdog_->begin_iteration(iteration.iter);
    const auto& node_plan = iteration.nodes.at(config_.node);
    const auto epoch = static_cast<std::uint32_t>(iteration.iter / I);
    const auto h = static_cast<std::uint32_t>(iteration.iter % I);

    // Quota mode: an active plan whose quotas cover the cluster re-splits
    // this iteration's global sample block by contiguous prefix-sum slices
    // (sampler quota_slice); quotas always partition the block, so
    // exactly-once delivery is preserved cluster-wide.
    const bool quota_mode = rebalance.active && rebalance.batch_quotas.size() == world;
    std::uint64_t quota_offset = 0;
    if (quota_mode) {
      for (std::uint32_t d = 0; d < flat_base; ++d) quota_offset += rebalance.batch_quotas[d];
    }

    // Effective per-queue thread counts: the plan's static assignment unless
    // the rebalance decision overrides it.
    std::vector<std::uint32_t> queue_threads(gpus, 1);
    for (GpuId g = 0; g < gpus; ++g) {
      if (g < node_plan.load_threads.size()) {
        queue_threads[g] = std::max<std::uint32_t>(node_plan.load_threads[g], 1);
      }
    }
    if (rebalance.active && rebalance.load_threads.size() >= flat_base + gpus) {
      for (GpuId g = 0; g < gpus; ++g) {
        queue_threads[g] = std::max<std::uint32_t>(rebalance.load_threads[flat_base + g], 1);
      }
    }

    // Capacity schedule for this node (thermal throttle / co-tenant /
    // degraded NIC): scales every virtual-time rate below.
    const double capacity_scale =
        std::max(config_.capacity.scale_at(static_cast<double>(iteration.iter)), 1e-3);

    IterationExecution stats;
    stats.iter = iteration.iter;
    stats.capacity_scale = capacity_scale;
    stats.rebalanced = quota_mode;

    // ---- enforce the plan's thread assignment (resize is a no-op when the
    // planned size is unchanged — no thundering-herd wakeups). Planned
    // threads are enforced as per-queue drain-task shares and in the
    // virtual-time model; the OS-thread count is additionally capped at the
    // core budget so oversubscription never turns planned bandwidth into
    // context-switch overhead.
    const std::uint32_t load_threads_total = std::max<std::uint32_t>(
        1, std::accumulate(queue_threads.begin(), queue_threads.end(), 0U));
    const std::uint32_t preproc_threads = std::max<std::uint32_t>(1, node_plan.preproc_threads);
    {
      LOBSTER_TRACE_SPAN_ARG(kExecutor, "resize_pools", load_threads_total);
      loading_pool.resize(std::min(load_threads_total, hw_threads));
      preproc_pool.resize(std::min(preproc_threads, hw_threads));
      LOBSTER_TRACE_COUNTER(kPool, "load_pool_size", load_threads_total);
      LOBSTER_TRACE_COUNTER(kPool, "preproc_pool_size", preproc_threads);
    }
    stats.load_pool_size = load_threads_total;
    stats.preproc_pool_size = preproc_threads;
    const std::uint32_t pool_threads = std::min(load_threads_total, hw_threads);

    // ---- land the previous iteration's plan prefetches before any demand
    // is classified, keeping plan order (evictions of i, prefetches of i,
    // then demand of i+1): the enqueue below then sees the planned residency
    // and its tier counts do not depend on thread timing.
    {
      LOBSTER_TRACE_SPAN(kExecutor, "prefetch_join");
      for (auto& f : prefetch_futures) f.get();
      prefetch_futures.clear();
    }

    // ---- enqueue demand requests per GPU queue (bulk push; overflow spills
    // loudly instead of blocking or dropping)
    {
      LOBSTER_TRACE_SPAN(kExecutor, "enqueue");
      for (GpuId g = 0; g < gpus; ++g) {
        enqueue_buffer.clear();
        std::vector<SampleId> batch_samples;
        if (quota_mode) {
          const std::uint32_t quota = rebalance.batch_quotas[flat_base + g];
          batch_samples = sampler_.quota_slice(epoch, h, quota_offset, quota);
          quota_offset += quota;
        } else {
          batch_samples = sampler_.minibatch(epoch, h, config_.node, g);
        }
        for (const SampleId s : batch_samples) {
          LoadRequest request;
          request.sample = s;
          request.bytes = catalog_.sample_bytes(s);
          request.iter = iteration.iter;
          request.gpu = g;
          request.tier = store_.contains(s) ? FetchTier::kLocal
                         : (manager_ != nullptr || kv_store_ != nullptr ? FetchTier::kRemote
                                                                        : FetchTier::kPfs);
          enqueue_buffer.push_back(request);
        }
        stats.demand_requests += static_cast<std::uint32_t>(enqueue_buffer.size());
        const std::size_t accepted = queues.try_push_batch(g, enqueue_buffer);
        if (accepted < enqueue_buffer.size()) {
          spill[g].assign(enqueue_buffer.begin() + static_cast<std::ptrdiff_t>(accepted),
                          enqueue_buffer.end());
          stats.spilled_requests +=
              static_cast<std::uint32_t>(enqueue_buffer.size() - accepted);
          LOBSTER_METRIC_COUNT("executor.spilled_requests", enqueue_buffer.size() - accepted);
        }
        spill_next[g].store(0, std::memory_order_relaxed);
      }
    }
#if !defined(LOBSTER_TELEMETRY_DISABLED)
    // Sample the per-GPU queue depths at their peak (the §4.2 load signal).
    if (telemetry::active()) {
      auto& tracer = telemetry::Tracer::instance();
      const auto depths = queues.depths();
      for (GpuId g = 0; g < gpus; ++g) {
        tracer.counter_wall(telemetry::Category::kQueue,
                            tracer.intern(strf("queue_depth/gpu%u", g)),
                            static_cast<double>(depths[g]));
      }
    }
#endif

    // ---- drain queues with the planned per-queue thread counts. Workers
    // pop in batches, accumulate accounting and delivery logs privately,
    // and merge once per task — no shared state is touched per request.
    {
      LOBSTER_TRACE_SPAN_ARG(kExecutor, "drain", stats.demand_requests);
      futures.clear();
      // Surplus drain tasks beyond the pool's OS threads never run
      // concurrently — they'd only wake a worker to find the queue already
      // empty — so cap the per-queue task count at the real pool size. The
      // planned share still drives the virtual-time model and stats.
      for (GpuId g = 0; g < gpus; ++g) {
        const std::uint32_t per_queue = std::min(pool_threads, queue_threads[g]);
        for (std::uint32_t t = 0; t < per_queue; ++t) {
          futures.push_back(loading_pool.submit(
              [this, g, &queues, &spill, &spill_next, &accounting, &merge_mutex, &delivered] {
                GpuAccounting local;
                std::vector<SampleId> my_delivered;
                std::vector<LoadRequest> batch;
                std::vector<LoadRequest> slow;
                batch.reserve(kDrainBatch);
                while (queues.try_pop_batch(g, batch, kDrainBatch) > 0) {
                  Bytes batch_local_bytes = 0;
                  slow.clear();
                  for (const auto& request : batch) {
                    my_delivered.push_back(request.sample);
                    // Local-tier fast path inlined: pure accounting, with
                    // telemetry batched below so the warm drain pays one
                    // metric-gate check per batch instead of per sample.
                    if (request.tier == FetchTier::kLocal) {
                      local.local_bytes += request.bytes;
                      ++local.local_hits;
                      batch_local_bytes += request.bytes;
                    } else {
                      slow.push_back(request);
                    }
                  }
                  if (batch_local_bytes > 0) {
                    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_local", batch_local_bytes);
                    LOBSTER_METRIC_COUNT("executor.local_bytes", batch_local_bytes);
                  }
                  // Misses coalesce: one multi-get envelope per holder and
                  // batched PFS materialization instead of a round-trip (and
                  // a heap payload) per sample.
                  if (!slow.empty()) execute_batch(slow, local);
                  batch.clear();
                }
                // Claim spilled requests (if any) via the atomic cursor.
                const auto& overflow = spill[g];
                while (true) {
                  const std::size_t idx =
                      spill_next[g].fetch_add(1, std::memory_order_relaxed);
                  if (idx >= overflow.size()) break;
                  my_delivered.push_back(overflow[idx].sample);
                  execute_request(overflow[idx], local);
                }
                const std::scoped_lock lock(merge_mutex);
                accounting[g].merge(local);
                delivered[g].insert(delivered[g].end(), my_delivered.begin(),
                                    my_delivered.end());
              }));
        }
      }
      for (auto& f : futures) f.get();

      // Dedup check per GPU (the same sample legitimately goes to two GPUs;
      // within one queue it must be delivered exactly once).
      std::uint64_t delivered_total = 0;
      for (GpuId g = 0; g < gpus; ++g) {
        auto& log = delivered[g];
        std::sort(log.begin(), log.end());
        for (std::size_t i = 1; i < log.size(); ++i) {
          if (log[i] == log[i - 1]) ++report.duplicate_deliveries;
        }
        delivered_count[g] = log.size();
        delivered_total += log.size();
        log.clear();
        spill[g].clear();
      }
      report.samples_delivered += delivered_total;
      if (delivered_total < stats.demand_requests) {
        report.lost_deliveries += stats.demand_requests - delivered_total;
        log::warn("executor: iteration %llu lost %llu deliveries",
                  static_cast<unsigned long long>(iteration.iter),
                  static_cast<unsigned long long>(stats.demand_requests - delivered_total));
      }
    }

    // ---- preprocessing: one batch task per GPU on the preprocessing pool
    {
      LOBSTER_TRACE_SPAN(kExecutor, "preproc");
      preproc_futures.clear();
      std::atomic<std::uint64_t> preproc_checksum{0};
      for (GpuId g = 0; g < gpus; ++g) {
        preproc_futures.push_back(preproc_pool.submit([g, &preproc_checksum] {
          // Token CPU work standing in for decode+augment.
          std::uint64_t acc = g;
          for (int i = 0; i < 256; ++i) acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
          preproc_checksum.fetch_add(acc, std::memory_order_relaxed);
        }));
      }
      for (auto& f : preproc_futures) f.get();
    }

    // ---- virtual-time accounting (all rates scaled by the node's capacity
    // schedule, so a throttled node is slower in exactly the modeled way)
    Seconds load_max = 0.0;
    Seconds preproc_max = 0.0;
    Bytes node_bytes = 0;
    feedback_.iter = iteration.iter;
    feedback_.devices.clear();
    for (GpuId g = 0; g < gpus; ++g) {
      const auto& acct = accounting[g];
      const double threads = queue_threads[g];
      const Seconds load = (static_cast<double>(acct.local_bytes) / config_.rates.local_bps +
                            static_cast<double>(acct.remote_bytes) / config_.rates.remote_bps +
                            static_cast<double>(acct.pfs_bytes) / config_.rates.pfs_bps) /
                           (threads * capacity_scale);
      load_max = std::max(load_max, load);
      const Bytes gpu_bytes = acct.local_bytes + acct.remote_bytes + acct.pfs_bytes;
      node_bytes += gpu_bytes;
      const Seconds preproc = static_cast<double>(gpu_bytes) /
                              (config_.rates.preproc_bps * preproc_threads * capacity_scale);
      preproc_max = std::max(preproc_max, preproc);
      stats.local_hits += acct.local_hits;
      stats.remote_fetches += acct.remote_fetches;
      stats.pfs_fetches += acct.pfs_fetches;
      stats.degraded_fetches += acct.degraded_fetches;
      accounting[g] = GpuAccounting{};  // reset for the next iteration

      // Per-GPU feedback for the balancer: pipeline time (NOT clamped by
      // t_train), so the derived samples/s is the device's delivery
      // capability and stays quota-independent — shrink a slow GPU's quota
      // and its measured rate holds steady instead of chasing the quota.
      const Seconds busy = load + preproc;
      const std::uint32_t flat = flat_base + g;
      feedback_.devices.push_back(core::DeviceFeedback{flat, delivered_count[g], busy});
      throughput_[g].record(delivered_count[g], busy);
      throughput_gauges[g]->set(throughput_[g].windowed_rate());
      delivered_count[g] = 0;
    }
    stats.virtual_load = load_max;
    stats.virtual_preproc = preproc_max;
    stats.virtual_duration = std::max(config_.t_train, load_max + preproc_max);

    report.spilled_requests += stats.spilled_requests;
    report.degraded_fetches += stats.degraded_fetches;
    report.virtual_total += stats.virtual_duration;

    // ---- plan-driven cache maintenance
    LOBSTER_TRACE_SPAN_ARG(kExecutor, "cache_maintenance",
                           node_plan.evictions.size() + node_plan.prefetches.size());
    for (const SampleId s : node_plan.evictions) store_.erase(s);
    LOBSTER_METRIC_COUNT("executor.plan_evictions", node_plan.evictions.size());

    // Prefetches run on the loading pool until the next iteration joins them
    // ahead of its enqueue. Each of at most pool_threads contiguous chunks
    // goes through execute_batch: one multi-get envelope per holder and one
    // batched PFS materialize, instead of a task and a round-trip per
    // sample. Their tier accounting is background work and deliberately not
    // part of the demand-path virtual time.
    prefetch_batch.clear();
    for (const SampleId s : node_plan.prefetches) {
      LoadRequest request;
      request.sample = s;
      request.bytes = catalog_.sample_bytes(s);
      request.iter = iteration.iter;
      request.tier = manager_ != nullptr || kv_store_ != nullptr ? FetchTier::kRemote
                                                                 : FetchTier::kPfs;
      prefetch_batch.push_back(request);
    }
    stats.prefetch_requests = static_cast<std::uint32_t>(prefetch_batch.size());
    const std::size_t chunks = std::min<std::size_t>(pool_threads, prefetch_batch.size());
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = prefetch_batch.size() * c / chunks;
      const std::size_t end = prefetch_batch.size() * (c + 1) / chunks;
      const std::span<const LoadRequest> chunk(prefetch_batch.data() + begin, end - begin);
      prefetch_futures.push_back(loading_pool.submit([this, chunk] {
        GpuAccounting background;
        execute_batch(chunk, background);
      }));
    }

    if (watchdog_ != nullptr) watchdog_->end_iteration();
    stats.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 iter_started)
                       .count();
    report.iterations.push_back(stats);
  }
  for (auto& f : prefetch_futures) f.get();

  report.payload_failures = payload_failures_.load(std::memory_order_relaxed);
  report.quarantined_payloads = quarantined_.load(std::memory_order_relaxed);
  LOBSTER_METRIC_COUNT("executor.samples_delivered", report.samples_delivered);
  if (!job_.metric_prefix.empty()) {
    // Per-tenant slice of the same aggregates (dynamic names can't use the
    // per-literal metric macros).
    registry.counter(job_.metric_prefix + "samples_delivered").add(report.samples_delivered);
    registry.counter(job_.metric_prefix + "degraded_fetches").add(report.degraded_fetches);
    registry.counter(job_.metric_prefix + "quarantined_payloads")
        .add(report.quarantined_payloads);
  }
  return report;
}

}  // namespace lobster::runtime
