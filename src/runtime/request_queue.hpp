// Per-GPU data-loading request queues (§4.2).
//
// "Lobster proposes to maintain a separate request queue for each GPU, each
// of which can be assigned a different number of threads such as to achieve
// load balancing." This is the online-runtime realization: one bounded MPMC
// queue per co-located GPU, plus helpers the thread assignment consults
// (per-queue depth, total pending bytes).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/types.hpp"

namespace lobster::runtime {

enum class FetchTier : std::uint8_t { kLocal, kRemote, kPfs };

struct LoadRequest {
  SampleId sample = kInvalidSample;
  Bytes bytes = 0;
  FetchTier tier = FetchTier::kLocal;
  IterId iter = 0;
  GpuId gpu = 0;
};

class GpuRequestQueues {
 public:
  GpuRequestQueues(std::uint16_t gpus, std::size_t capacity_per_queue);

  std::uint16_t gpus() const noexcept { return static_cast<std::uint16_t>(queues_.size()); }

  /// Blocking push to a GPU's queue; false once closed.
  bool push(GpuId gpu, LoadRequest request);

  /// Non-blocking push; false when the queue is full or closed. Callers must
  /// handle the overflow (the executor spills and counts it) — a dropped
  /// return value here loses samples silently.
  [[nodiscard]] bool try_push(GpuId gpu, LoadRequest request);

  /// Non-blocking bulk push under one queue lock; returns how many leading
  /// requests were accepted (the rest stay with the caller).
  [[nodiscard]] std::size_t try_push_batch(GpuId gpu, std::vector<LoadRequest>& requests);

  /// Blocking pop from a GPU's queue; nullopt once closed and drained.
  std::optional<LoadRequest> pop(GpuId gpu);
  std::optional<LoadRequest> try_pop(GpuId gpu);

  /// Non-blocking bulk pop under one queue lock; appends up to `max_count`
  /// requests to `out` and returns how many were taken.
  std::size_t try_pop_batch(GpuId gpu, std::vector<LoadRequest>& out, std::size_t max_count);

  /// Pending request count of one queue (the §4.2 proportional signal).
  std::size_t depth(GpuId gpu) const;
  std::vector<std::size_t> depths() const;

  void close_all();

 private:
  MpmcQueue<LoadRequest>& queue(GpuId gpu);
  const MpmcQueue<LoadRequest>& queue(GpuId gpu) const;

  std::vector<std::unique_ptr<MpmcQueue<LoadRequest>>> queues_;
};

}  // namespace lobster::runtime
