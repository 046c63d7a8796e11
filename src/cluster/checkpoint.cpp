#include "cluster/checkpoint.hpp"

#include "common/wire.hpp"
#include "runtime/distribution_manager.hpp"

namespace lobster::cluster {

std::vector<std::byte> serialize(const JobCheckpoint& checkpoint) {
  return wire::seal(JobCheckpoint::kMagic, JobCheckpoint::kVersion, [&](wire::Writer& w) {
    w.u32(checkpoint.job_id);
    w.str(checkpoint.name);
    w.u64(checkpoint.dataset_fingerprint);
    w.u64(checkpoint.sampler_seed);
    w.u32(checkpoint.epoch);
    w.u64(checkpoint.cursor);
    w.u64(checkpoint.delivered_total);
    w.u64(checkpoint.delivery_digest);
    w.u16(checkpoint.width);
    w.u16(checkpoint.gpus_per_node);
    w.u32(checkpoint.batch_size);

    w.u32s(checkpoint.quotas);

    w.boolean(checkpoint.has_balancer);
    if (checkpoint.has_balancer) {
      const auto& b = checkpoint.balancer;
      w.u32(static_cast<std::uint32_t>(b.devices.size()));
      for (const auto& d : b.devices) {
        w.f64(d.ewma);
        w.u64(d.observations);
        w.boolean(d.down);
      }
      w.u32s(b.quotas);
      w.u32(static_cast<std::uint32_t>(b.applied_weights.size()));
      for (const double weight : b.applied_weights) w.f64(weight);
      w.u32s(b.applied_targets);
      w.u64(b.observed_iters);
    }

    w.u32(static_cast<std::uint32_t>(checkpoint.residency.size()));
    for (const ResidencyEntry& entry : checkpoint.residency) {
      w.u32(entry.sample);
      w.u16(entry.local_holder);
      w.u64(entry.bytes);
    }
    w.u64(checkpoint.residency_checksum);
  });
}

Result<JobCheckpoint> deserialize(std::span<const std::byte> bytes) {
  auto opened = wire::open(bytes, JobCheckpoint::kMagic, JobCheckpoint::kVersion, "checkpoint");
  if (!opened.ok()) return opened.status();
  wire::Reader& r = *opened;

  JobCheckpoint checkpoint;
  checkpoint.job_id = r.u32();
  checkpoint.name = r.str();
  checkpoint.dataset_fingerprint = r.u64();
  checkpoint.sampler_seed = r.u64();
  checkpoint.epoch = r.u32();
  checkpoint.cursor = r.u64();
  checkpoint.delivered_total = r.u64();
  checkpoint.delivery_digest = r.u64();
  checkpoint.width = r.u16();
  checkpoint.gpus_per_node = r.u16();
  checkpoint.batch_size = r.u32();

  r.u32s(checkpoint.quotas);

  checkpoint.has_balancer = r.boolean();
  if (checkpoint.has_balancer) {
    auto& b = checkpoint.balancer;
    b.devices.resize(r.count(sizeof(double) + sizeof(std::uint64_t) + 1));
    for (auto& d : b.devices) {
      d.ewma = r.f64();
      d.observations = r.u64();
      d.down = r.boolean();
    }
    r.u32s(b.quotas);
    b.applied_weights.resize(r.count(sizeof(double)));
    for (double& weight : b.applied_weights) weight = r.f64();
    r.u32s(b.applied_targets);
    b.observed_iters = r.u64();
  }

  checkpoint.residency.resize(
      r.count(sizeof(std::uint32_t) + sizeof(std::uint16_t) + sizeof(std::uint64_t)));
  for (ResidencyEntry& entry : checkpoint.residency) {
    entry.sample = r.u32();
    entry.local_holder = r.u16();
    entry.bytes = r.u64();
  }
  checkpoint.residency_checksum = r.u64();

  if (!r.ok()) return Status::corrupt("checkpoint: truncated field");
  if (r.remaining() != 0) return Status::corrupt("checkpoint: trailing bytes");

  // The CRC guards the transport; the inventory checksum guards the
  // *semantic* manifest the same way the rejoin path does — a manifest that
  // disagrees with its own checksum must not drive directory mutations.
  std::vector<SampleId> samples;
  samples.reserve(checkpoint.residency.size());
  for (const ResidencyEntry& entry : checkpoint.residency) samples.push_back(entry.sample);
  if (runtime::inventory_checksum(samples) != checkpoint.residency_checksum) {
    return Status::corrupt("checkpoint: residency manifest checksum mismatch");
  }
  return checkpoint;
}

Status save_file(const JobCheckpoint& checkpoint, const std::string& path) {
  return wire::write_file(path, serialize(checkpoint), "checkpoint");
}

Result<JobCheckpoint> load_file(const std::string& path) {
  auto bytes = wire::read_file(path, "checkpoint");
  if (!bytes.ok()) return bytes.status();
  return deserialize(*bytes);
}

}  // namespace lobster::cluster
