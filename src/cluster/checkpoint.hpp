// Crash-consistent job checkpointing (DESIGN.md §13).
//
// A checkpoint captures everything a preempted (or crashed) job needs to
// resume with a delivery set byte-identical to an uninterrupted run:
//  * the (epoch, cursor) position inside the deterministic epoch
//    permutation — the sampler itself is pure (seed chain), so the cursor
//    IS the shuffle state;
//  * the exactly-once delivery log digest, an order-sensitive fold over
//    every sample delivered so far, so restore can prove it resumed the
//    same stream (digest of resumed run == digest of uninterrupted run);
//  * the per-GPU quota plan and FeedbackBalancer EWMA history, so the
//    heterogeneity controller does not restart its warmup from scratch;
//  * the KV residency manifest of the job's namespace — (sample, holder,
//    bytes) with holders recorded *relative to the node block* so a resume
//    at a different block (or width) can re-home entries — guarded by the
//    same order-independent inventory checksum the rejoin path uses
//    (runtime::inventory_checksum, PR 5).
//
// Consistency point: checkpoints are only taken at an iteration boundary —
// after round k's delivery fully landed, before round k+1 touches the tier —
// so there is never a half-delivered iteration to reconcile.
//
// Wire format: the shared sealed frame of common/wire.hpp — magic +
// version + length-prefixed fields + CRC32 trailer — written via temp-file
// + rename so a crash mid-save never leaves a torn checkpoint where a
// loader could find it. deserialize() returns kCorrupt on any truncation,
// bad magic/version, CRC mismatch, or length field its input cannot back —
// a corrupt checkpoint must never restore into a silently-wrong delivery
// stream.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/feedback_balancer.hpp"

namespace lobster::cluster {

/// Order-sensitive delivery-digest chain: fold each delivered sample, in
/// delivery order, into the running digest (splitmix64-finalizer mix). Two
/// runs delivered the same samples in the same order iff digests match.
inline std::uint64_t delivery_digest_advance(std::uint64_t digest,
                                             SampleId sample) noexcept {
  std::uint64_t z = digest + 0x9E3779B97F4A7C15ULL + sample;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One cached sample of the job's namespace at checkpoint time. The holder
/// is block-relative so restore can re-home it onto whatever block the job
/// resumes on (modulo-folded when the new block is narrower).
struct ResidencyEntry {
  SampleId sample = 0;            ///< dataset-local sample id (no namespace bits)
  std::uint16_t local_holder = 0; ///< holder node minus block.first
  Bytes bytes = 0;
};

struct JobCheckpoint {
  static constexpr std::uint32_t kMagic = 0x4C42'4350;  // "LBCP"
  static constexpr std::uint16_t kVersion = 1;

  std::uint32_t job_id = 0;
  std::string name;
  std::uint64_t dataset_fingerprint = 0;
  std::uint64_t sampler_seed = 0;

  // Progress cursor: the job has fully delivered perm[0, cursor) of `epoch`
  // (and every earlier epoch in full). Width-independent by construction.
  std::uint32_t epoch = 0;
  std::uint64_t cursor = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t delivery_digest = 0;

  std::uint16_t width = 0;  ///< node-block width when the checkpoint was cut
  std::uint16_t gpus_per_node = 0;
  std::uint32_t batch_size = 0;

  /// Per-flat-device batch quotas in force (empty = static split).
  std::vector<std::uint32_t> quotas;
  bool has_balancer = false;
  core::FeedbackBalancer::State balancer;  ///< valid when has_balancer

  std::vector<ResidencyEntry> residency;
  std::uint64_t residency_checksum = 0;  ///< inventory_checksum over samples
};

/// Serializes to the versioned, CRC-guarded wire format.
std::vector<std::byte> serialize(const JobCheckpoint& checkpoint);

/// Parses a serialized checkpoint. Every failure mode — short buffer, bad
/// magic, unknown version, CRC mismatch, truncated field — returns
/// StatusCode::kCorrupt with a detail naming what broke.
Result<JobCheckpoint> deserialize(std::span<const std::byte> bytes);

/// Atomic save: writes `path` + ".tmp" then renames, so readers only ever
/// see complete checkpoints.
Status save_file(const JobCheckpoint& checkpoint, const std::string& path);

/// Loads and deserializes; kNotFound when the file is missing, kCorrupt on
/// any integrity failure.
Result<JobCheckpoint> load_file(const std::string& path);

}  // namespace lobster::cluster
