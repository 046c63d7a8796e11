// General experiment runner: every knob of the simulated testbed on the
// command line, so new experiments don't need new binaries.
//
//   $ ./experiment_runner dataset=imagenet1k nodes=1 scale=256
//         strategies=pytorch,dali,nopfs,lobster epochs=4 model=resnet50
//         cache_fraction=0.296 seed=42 plan_out=/tmp/plan.bin
//
// Options (all optional):
//   dataset=imagenet1k|imagenet22k   scale=<divide sample count>
//   nodes=N gpus=M batch=B cpu_threads=T epochs=E model=<name> seed=S
//   cache_fraction=<of dataset bytes>   strategies=<comma list>
//   gpu_preproc=0|1 des_loading=0|1   io_sigma= burst_prob= burst_mult=
//   pfs_cluster_gbps=    imbalance_threshold=
//   plan_out=<path>      (saves the *last* strategy's decision plan)
//   csv=<path>           (writes the comparison table as CSV)
#include <cstdio>
#include <fstream>
#include <sstream>

#include "baselines/strategies.hpp"
#include "common/config.hpp"
#include "metrics/report.hpp"
#include "pipeline/simulator.hpp"
#include "runtime/plan_io.hpp"

using namespace lobster;

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = Config::from_args(argc, argv);

  const std::string dataset_name = config.get_string("dataset", "imagenet1k");
  const double scale = config.get_double("scale", 256.0);
  const auto nodes = static_cast<std::uint16_t>(config.get_int("nodes", 1));

  pipeline::ExperimentPreset preset =
      dataset_name == "imagenet22k"
          ? pipeline::preset_imagenet22k_multi_node(scale, nodes,
                                                    config.get_string("model", "resnet50"))
          : pipeline::preset_imagenet1k_multi_node(scale, nodes,
                                                   config.get_string("model", "resnet50"));

  preset.epochs = static_cast<std::uint32_t>(config.get_int("epochs", 4));
  preset.batch_size = static_cast<std::uint32_t>(config.get_int("batch", 32));
  preset.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  preset.cluster.gpus_per_node = static_cast<std::uint16_t>(config.get_int("gpus", 8));
  preset.cluster.cpu_threads =
      static_cast<std::uint32_t>(config.get_int("cpu_threads", 128));
  if (config.contains("cache_fraction")) {
    preset.cluster.cache_bytes = pipeline::scaled_cache_bytes(
        preset.dataset, preset.seed, config.get_double("cache_fraction", 0.296));
  }
  preset.noise.io_sigma = config.get_double("io_sigma", preset.noise.io_sigma);
  preset.noise.burst_probability =
      config.get_double("burst_prob", preset.noise.burst_probability);
  preset.noise.burst_multiplier =
      config.get_double("burst_mult", preset.noise.burst_multiplier);
  preset.imbalance_threshold =
      config.get_double("imbalance_threshold", preset.imbalance_threshold);
  if (config.contains("pfs_cluster_gbps")) {
    preset.storage.pfs_cluster_bps = config.get_double("pfs_cluster_gbps", 6.0) * 1e9;
  }

  const auto strategy_names =
      split_list(config.get_string("strategies", "pytorch,dali,nopfs,lobster"));
  const bool gpu_preproc = config.get_bool("gpu_preproc", false);
  const bool des_loading = config.get_bool("des_loading", false);
  const std::string plan_out = config.get_string("plan_out", "");
  const std::string csv_path = config.get_string("csv", "");

  for (const auto& key : config.unconsumed()) {
    std::fprintf(stderr, "warning: unknown option '%s'\n", key.c_str());
  }

  std::printf("experiment: %s scale=%g nodes=%u gpus=%u batch=%u epochs=%u model=%s seed=%llu\n\n",
              preset.dataset.name.c_str(), scale, preset.cluster.nodes,
              preset.cluster.gpus_per_node, preset.batch_size, preset.epochs,
              preset.model.c_str(), static_cast<unsigned long long>(preset.seed));

  std::vector<metrics::StrategyResult> results;
  runtime::Plan last_plan;
  for (const auto& name : strategy_names) {
    auto strategy = baselines::LoaderStrategy::by_name(name);
    strategy.gpu_preprocessing = gpu_preproc;
    pipeline::SimulationConfig sim_config;
    sim_config.preset = preset;
    sim_config.strategy = strategy;
    sim_config.des_loading = des_loading;
    if (!plan_out.empty() && name == strategy_names.back()) {
      sim_config.record_plan = &last_plan;
    }
    pipeline::TrainingSimulator simulator(std::move(sim_config));
    results.push_back({name, simulator.run()});
  }

  const auto table = metrics::comparison_table(results);
  std::printf("%s\n", table.render_text().c_str());

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << table.render_csv();
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  if (!plan_out.empty() && !last_plan.empty()) {
    if (const Status saved = runtime::save_plan(last_plan, plan_out); !saved.ok()) {
      std::fprintf(stderr, "cannot write plan: %s\n", saved.to_string().c_str());
      return 1;
    }
    std::printf("decision plan for '%s' written to %s (%zu iterations, %llu prefetches)\n",
                strategy_names.back().c_str(), plan_out.c_str(), last_plan.total_iterations(),
                static_cast<unsigned long long>(last_plan.total_prefetches()));
  }
  return 0;
}
