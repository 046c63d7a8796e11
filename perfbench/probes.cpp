// Layer probes: each times one public call of a layer from outside, over
// the inputs of the workload that runs it, and reports the median of
// several repeats.
#include <stdexcept>

#include "bench.hpp"
#include "pipeline/simulator.hpp"
#include "runtime/distribution_manager.hpp"

namespace perfbench {

namespace {
constexpr int kProbeRepeats = 7;
}  // namespace

PayloadProbe probe_payload(const lobster::data::SampleCatalog& catalog) {
  const std::uint32_t samples = std::min<std::uint32_t>(catalog.size(), 256);
  std::vector<double> materialize;
  std::vector<double> verify;
  for (int r = 0; r < kProbeRepeats; ++r) {
    double materialize_ns = 0.0;
    double verify_ns = 0.0;
    double kib = 0.0;
    for (lobster::SampleId id = 0; id < samples; ++id) {
      const lobster::Bytes bytes = catalog.sample_bytes(id);
      const auto t0 = Clock::now();
      const auto payload = lobster::runtime::make_sample_payload_shared(id, bytes);
      const auto t1 = Clock::now();
      const bool ok = lobster::runtime::verify_sample_payload(id, *payload);
      const auto t2 = Clock::now();
      if (!ok) throw std::runtime_error("payload probe: a fresh payload failed verification");
      materialize_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      verify_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
      kib += static_cast<double>(bytes) / 1024.0;
    }
    materialize.push_back(materialize_ns / kib);
    verify.push_back(verify_ns / kib);
  }
  return {median(materialize), median(verify)};
}

double probe_minibatch_us(const lobster::data::EpochSampler& sampler) {
  const auto& config = sampler.config();
  const std::uint32_t iterations = std::min<std::uint32_t>(sampler.iterations_per_epoch(), 64);
  std::vector<double> per_call;
  std::size_t checksum = 0;
  for (int r = 0; r < kProbeRepeats; ++r) {
    std::uint32_t calls = 0;
    const auto start = Clock::now();
    for (std::uint32_t h = 0; h < iterations; ++h) {
      for (lobster::NodeId n = 0; n < config.nodes; ++n) {
        for (lobster::GpuId g = 0; g < config.gpus_per_node; ++g) {
          checksum += sampler.minibatch(1, h, n, g).size();
          ++calls;
        }
      }
    }
    per_call.push_back(seconds_since(start) * 1e6 / calls);
  }
  if (checksum == 0) throw std::runtime_error("sampler probe: empty mini-batches");
  return median(per_call);
}

double probe_peer_holder_ns(const lobster::cache::CacheDirectory& directory,
                            std::uint32_t samples) {
  const std::uint32_t probes = std::min<std::uint32_t>(samples, 16384);
  std::vector<double> per_call;
  std::uint64_t found = 0;
  for (int r = 0; r < kProbeRepeats; ++r) {
    const auto start = Clock::now();
    for (lobster::SampleId id = 0; id < probes; ++id) {
      if (directory.peer_holder(id, 0) != lobster::cache::CacheDirectory::kInvalidNode) ++found;
    }
    per_call.push_back(seconds_since(start) * 1e9 / probes);
  }
  if (found == 0) throw std::runtime_error("directory probe: no sample has a peer holder");
  return median(per_call);
}

double probe_construct_s(const lobster::pipeline::ExperimentPreset& preset,
                         const lobster::baselines::LoaderStrategy& strategy) {
  std::vector<double> times;
  for (int r = 0; r < 3; ++r) {
    lobster::runtime::Plan plan;
    lobster::pipeline::SimulationConfig config;
    config.preset = preset;
    config.strategy = strategy;
    config.record_plan = &plan;
    const auto start = Clock::now();
    const lobster::pipeline::TrainingSimulator simulator(std::move(config));
    times.push_back(seconds_since(start));
  }
  return median(times);
}

}  // namespace perfbench
