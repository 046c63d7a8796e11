#include "runtime/plan_io.hpp"

#include "common/wire.hpp"

namespace lobster::runtime {

std::vector<std::byte> serialize_plan(const Plan& plan) {
  return wire::seal(kPlanMagic, kPlanVersion, [&](wire::Writer& w) {
    w.u16(plan.cluster_nodes);
    w.u16(plan.gpus_per_node);
    w.u32(plan.epochs);
    w.u32(plan.iterations_per_epoch);
    w.u32(plan.batch_size);
    w.u64(plan.seed);
    w.u64(plan.iterations.size());
    for (const auto& iteration : plan.iterations) {
      w.u64(iteration.iter);
      for (const auto& node : iteration.nodes) {
        w.u32(node.preproc_threads);
        w.u32s(node.load_threads);
        w.u32s(node.prefetches);
        w.u32s(node.evictions);
      }
    }
  });
}

Result<Plan> deserialize_plan(std::span<const std::byte> bytes) {
  auto opened = wire::open(bytes, kPlanMagic, kPlanVersion, "plan");
  if (!opened.ok()) return opened.status();
  wire::Reader& r = *opened;

  Plan plan;
  plan.cluster_nodes = r.u16();
  plan.gpus_per_node = r.u16();
  plan.epochs = r.u32();
  plan.iterations_per_epoch = r.u32();
  plan.batch_size = r.u32();
  plan.seed = r.u64();
  if (plan.cluster_nodes == 0 || plan.gpus_per_node == 0) {
    return Status::corrupt("plan: zero cluster dimensions");
  }
  // The smallest encoding of one iteration — its id, then per node the
  // preproc count, the per-GPU list and two empty id lists — bounds how
  // many iterations the bytes left can hold.
  const std::size_t min_node_bytes =
      (4 + static_cast<std::size_t>(plan.gpus_per_node)) * sizeof(std::uint32_t);
  const std::size_t count = r.count<std::uint64_t>(
      sizeof(std::uint64_t) + plan.cluster_nodes * min_node_bytes);
  if (!r.ok()) return Status::corrupt("plan: iteration count exceeds the file");
  if (count != static_cast<std::uint64_t>(plan.epochs) * plan.iterations_per_epoch) {
    return Status::corrupt("plan: iteration count != epochs * I");
  }
  plan.iterations.resize(count);
  for (auto& iteration : plan.iterations) {
    iteration.iter = r.u64();
    iteration.nodes.resize(plan.cluster_nodes);
    for (auto& node : iteration.nodes) {
      node.preproc_threads = r.u32();
      r.u32s(node.load_threads);
      if (r.ok() && node.load_threads.size() != plan.gpus_per_node) {
        return Status::corrupt("plan: per-GPU thread list has wrong length");
      }
      r.u32s(node.prefetches);
      r.u32s(node.evictions);
    }
    if (!r.ok()) return Status::corrupt("plan: truncated field");
  }
  if (!r.done()) return Status::corrupt("plan: trailing bytes after the last iteration");
  return plan;
}

Status save_plan(const Plan& plan, const std::string& path) {
  return wire::write_file(path, serialize_plan(plan), "plan");
}

Result<Plan> load_plan(const std::string& path) {
  auto bytes = wire::read_file(path, "plan");
  if (!bytes.ok()) return bytes.status();
  return deserialize_plan(*bytes);
}

}  // namespace lobster::runtime
