#include "core/sweeps.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

#include "compress/integer_model.h"
#include "core/artifacts.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/threadpool.h"

namespace con::core {

std::vector<ModelArtifact> build_pruned_family(
    Study& study, const std::vector<double>& densities, bool one_shot) {
  std::vector<ModelArtifact> family;
  family.reserve(densities.size());
  for (double d : densities) {
    family.push_back(study.pruned_variant(d, one_shot));
  }
  return family;
}

std::vector<ModelArtifact> build_quantized_family(
    Study& study, const std::vector<int>& bitwidths,
    bool quantize_activations) {
  std::vector<ModelArtifact> family;
  family.reserve(bitwidths.size());
  for (int bits : bitwidths) {
    family.push_back(study.quantized_variant(bits, quantize_activations));
  }
  return family;
}

namespace {

// A store cell's derivation hangs off the variant's; a zero hash names no
// derivation the store has seen. Checked before any attack is crafted.
void require_stored(const ModelArtifact& variant, const char* where) {
  if (variant.drv.is_zero()) {
    throw std::invalid_argument(std::string(where) + ": " +
                                variant.model.name() +
                                " has no store derivation");
  }
}

// One cell through the store. Callers must have warmed the study's lazy
// state (baseline, hashes, adversarial batch) before invoking this from
// worker threads: the getters below then only read memoized values.
ScenarioPoint stored_cell(Study& study, const ModelArtifact& variant,
                          attacks::AttackKind attack,
                          const attacks::AttackParams& params,
                          const tensor::Tensor& baseline_adv,
                          store::Hash* cell_hash) {
  store::Store& s = study.store();
  const store::Derivation drv = transfer_cell_derivation(
      study.baseline_drv_hash(), variant.drv, study.dataset_hash(),
      study.config().attack_size, attack, params, variant.model.name());
  std::optional<ScenarioPoint> point;
  const std::string path = s.realise(drv, [&](const std::string& tmp) {
    point = evaluate_scenarios(study.baseline(), variant.model, attack, params,
                               study.attack_set(), baseline_adv);
    save_scenario_point(*point, tmp);
  });
  if (!point) point = load_scenario_point(path);
  if (cell_hash != nullptr) *cell_hash = drv.hash();
  return *point;
}

// The integer twin of stored_cell: same realise-or-load shape, but the
// cell computes evaluate_scenarios_integer and is addressed by
// integer_cell_derivation (kind + fixed-point format attrs), so it can
// never serve or shadow a float cell.
ScenarioPoint stored_integer_cell(Study& study, ModelArtifact& variant,
                                  attacks::AttackKind attack,
                                  const attacks::AttackParams& params,
                                  const tensor::Tensor& baseline_adv,
                                  store::Hash* cell_hash) {
  store::Store& s = study.store();
  const auto formats = compress::integer_formats(variant.model);
  const store::Derivation drv = integer_cell_derivation(
      study.baseline_drv_hash(), variant.drv, study.dataset_hash(),
      study.config().attack_size, attack, params, variant.model.name(),
      formats.first, formats.second);
  std::optional<ScenarioPoint> point;
  const std::string path = s.realise(drv, [&](const std::string& tmp) {
    point = evaluate_scenarios_integer(study.baseline(), variant.model, attack,
                                       params, study.attack_set(),
                                       baseline_adv);
    save_scenario_point(*point, tmp);
  });
  if (!point) point = load_scenario_point(path);
  if (cell_hash != nullptr) *cell_hash = drv.hash();
  return *point;
}

// Realise the sweep-index artifact over `cell_hashes` and point the
// `root_name` GC root at it, keeping the sweep's closure alive.
void root_sweep_index(Study& study, attacks::AttackKind attack,
                      const attacks::AttackParams& params,
                      const std::vector<store::Hash>& cell_hashes,
                      const std::string& root_name) {
  store::Store& s = study.store();
  store::Derivation index("sweep-index", root_name);
  index.set("cells", static_cast<std::int64_t>(cell_hashes.size()));
  for (const store::Hash& h : cell_hashes) index.add_input(h);
  index.add_input(
      adversarial_derivation(study.baseline_drv_hash(), study.dataset_hash(),
                             study.config().attack_size, attack, params,
                             study.config().network)
          .hash());
  std::vector<std::string> lines;
  lines.reserve(cell_hashes.size());
  for (const store::Hash& h : cell_hashes) lines.push_back(h.short_hex());
  std::sort(lines.begin(), lines.end());
  const std::string path = s.realise(index, [&](const std::string& tmp) {
    std::ofstream f(tmp, std::ios::trunc);
    for (const std::string& line : lines) f << line << "\n";
    if (!f) throw std::runtime_error("sweep index write failed");
  });
  s.add_root("sweep-" + root_name, path);
}

}  // namespace

ScenarioPoint evaluate_scenarios_stored(Study& study,
                                        const ModelArtifact& variant,
                                        attacks::AttackKind attack,
                                        const attacks::AttackParams& params) {
  require_stored(variant, "evaluate_scenarios_stored");
  const tensor::Tensor baseline_adv = study.baseline_adversarial(attack, params);
  return stored_cell(study, variant, attack, params, baseline_adv, nullptr);
}

std::vector<ScenarioPoint> sweep_scenarios(
    Study& study, const std::vector<ModelArtifact>& family,
    attacks::AttackKind attack, const attacks::AttackParams& params) {
  std::vector<ScenarioPoint> points(family.size());
  if (family.empty()) return points;
  obs::ScopedPhase phase("sweep");
  for (const ModelArtifact& m : family) require_stored(m, "sweep_scenarios");
  // Warm all lazily-memoized study state on this thread; worker threads
  // below only read it.
  const tensor::Tensor baseline_adv =
      study.baseline_adversarial(attack, params);
  study.dataset_hash();
  study.baseline_drv_hash();
  std::vector<store::Hash> cell_hashes(family.size());
  static obs::Counter& cells = obs::counter("sweep.cells");
  util::parallel_for(0, family.size(), [&](std::size_t i) {
    obs::Span span(family[i].model.name(), "sweep_cell");
    points[i] =
        stored_cell(study, family[i], attack, params, baseline_adv,
                    &cell_hashes[i]);
    cells.add(1);
  });

  // The sweep index is a tiny text artifact whose inputs are every cell
  // (and, transitively via the cells' own provenance, the variants and
  // baseline) plus the shared adversarial batch. Rooting it keeps the
  // sweep's full closure alive; a sweep with any changed axis produces a
  // new index and re-points the root, stranding the old closure for gc().
  root_sweep_index(study, attack, params, cell_hashes,
                   study.config().network + "-" + attacks::attack_name(attack));
  return points;
}

ScenarioPoint evaluate_scenarios_integer_stored(
    Study& study, ModelArtifact& variant, attacks::AttackKind attack,
    const attacks::AttackParams& params) {
  require_stored(variant, "evaluate_scenarios_integer_stored");
  const tensor::Tensor baseline_adv = study.baseline_adversarial(attack, params);
  return stored_integer_cell(study, variant, attack, params, baseline_adv,
                             nullptr);
}

std::vector<ScenarioPoint> sweep_scenarios_integer(
    Study& study, std::vector<ModelArtifact>& family,
    attacks::AttackKind attack, const attacks::AttackParams& params) {
  std::vector<ScenarioPoint> points(family.size());
  if (family.empty()) return points;
  obs::ScopedPhase phase("sweep");
  // Reject non-executable members up front, before spending any attack
  // generation: a throw from a worker thread would lose the blocker text.
  for (ModelArtifact& m : family) {
    require_stored(m, "sweep_scenarios_integer");
    std::string why = compress::integer_blocker(m.model);
    if (!why.empty()) {
      throw std::invalid_argument("sweep_scenarios_integer: " +
                                  m.model.name() + ": " + why);
    }
  }
  const tensor::Tensor baseline_adv =
      study.baseline_adversarial(attack, params);
  study.dataset_hash();
  study.baseline_drv_hash();
  std::vector<store::Hash> cell_hashes(family.size());
  static obs::Counter& cells = obs::counter("sweep.cells.int8");
  util::parallel_for(0, family.size(), [&](std::size_t i) {
    obs::Span span(family[i].model.name(), "sweep_cell_int8");
    points[i] = stored_integer_cell(study, family[i], attack, params,
                                    baseline_adv, &cell_hashes[i]);
    cells.add(1);
  });
  root_sweep_index(study, attack, params, cell_hashes,
                   "int8-" + study.config().network + "-" +
                       attacks::attack_name(attack));
  return points;
}

std::vector<double> paper_density_grid() {
  // Fig. 2 spans dense down to extreme sparsity; log-ish spacing puts
  // resolution where the interesting transitions are.
  return {1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.03};
}

std::vector<int> paper_bitwidth_grid() {
  // Fig. 5 x-axis: fixed-point bitwidths; behaviour is flat above 8 bits
  // and changes sharply at 4 (1 integer bit).
  return {4, 8, 12, 16, 24, 32};
}

double preferred_density(const std::vector<double>& densities,
                         const std::vector<double>& base_accuracies,
                         double dense_accuracy, double tolerance) {
  if (densities.size() != base_accuracies.size() || densities.empty()) {
    throw std::invalid_argument("preferred_density: bad inputs");
  }
  // Sort points by density descending, walk toward sparsity while accuracy
  // holds; the last density before the drop is preferred.
  std::vector<std::size_t> order(densities.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return densities[a] > densities[b];
  });
  double preferred = densities[order.front()];
  for (std::size_t idx : order) {
    if (base_accuracies[idx] + tolerance >= dense_accuracy) {
      preferred = densities[idx];
    } else {
      break;
    }
  }
  return preferred;
}

}  // namespace con::core
