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

// The float transfer cells and their deployed-int8 counterparts share one
// realiser and one sweep driver; this is what else tells them apart.
struct CellKind {
  bool integer;         // evaluate_scenarios_integer, addressed with formats
  const char* what;     // named in errors
  const char* counter;  // obs counter of realised sweep cells
  const char* span;     // trace span of one sweep cell
  const char* root;     // prefix of the sweep-index root label
};
constexpr CellKind kFloatCells{false, "transfer cell", "sweep.cells",
                               "sweep_cell", ""};
constexpr CellKind kIntegerCells{true, "int8 transfer cell",
                                 "sweep.cells.int8", "sweep_cell_int8",
                                 "int8-"};

// The int8 entry points hang packed code panels off a model's layers, so
// they take it mutable; integer cells are reached only through the integer
// public entry points, which take their variants non-const.
nn::Sequential& int8_model(const ModelArtifact& variant) {
  return const_cast<nn::Sequential&>(variant.model);
}

// Rejects a member no cell can be realised for, before any attack is
// crafted (a throw from a worker thread would lose the message): a cell's
// derivation hangs off the variant's, and a zero hash names no derivation
// the store has seen; an integer cell also needs an integer-executable
// variant.
void require_cell(const CellKind& kind, const ModelArtifact& variant) {
  std::string why;
  if (variant.drv.is_zero()) {
    why = "has no store derivation";
  } else if (kind.integer) {
    why = compress::integer_blocker(int8_model(variant));
  }
  if (!why.empty()) {
    throw std::invalid_argument(std::string(kind.what) + " of " +
                                variant.model.name() + ": " + why);
  }
}

// One cell through the store: evaluated against `baseline_adv` and inserted
// on a miss, loaded on a hit. Callers must have warmed the study's lazy
// state (baseline, dataset hash) before invoking this from worker threads:
// the getters below then only read memoized values.
ScenarioPoint stored_cell(Study& study, const CellKind& kind,
                          const ModelArtifact& variant,
                          attacks::AttackKind attack,
                          const attacks::AttackParams& params,
                          const tensor::Tensor& baseline_adv,
                          store::Hash* cell_hash) {
  const ModelArtifact& base = study.baseline_artifact();
  std::optional<Int8Formats> formats;
  if (kind.integer) formats = compress::integer_formats(int8_model(variant));
  const store::Derivation drv = transfer_cell_derivation(
      base.drv, variant.drv, study.dataset_hash(),
      study.config().attack_size, attack, params, variant.model.name(),
      formats);
  std::optional<ScenarioPoint> point;
  const std::string path =
      study.store().realise(drv, [&](const std::string& tmp) {
        point = kind.integer
                    ? evaluate_scenarios_integer(
                          base.model, int8_model(variant), attack, params,
                          study.attack_set(), baseline_adv)
                    : evaluate_scenarios(base.model, variant.model, attack,
                                         params, study.attack_set(),
                                         baseline_adv);
        save_scenario_point(*point, tmp);
      });
  if (!point) point = load_scenario_point(path);
  if (cell_hash != nullptr) *cell_hash = drv.hash();
  return *point;
}

// One cell outside a sweep: no sweep index is realised or rooted, so the
// sweep roots keep naming whole families.
ScenarioPoint single_cell(Study& study, const CellKind& kind,
                          const ModelArtifact& variant,
                          attacks::AttackKind attack,
                          const attacks::AttackParams& params) {
  require_cell(kind, variant);
  const AdversarialBatch adv =
      study.adversarial(study.baseline_artifact(), attack, params);
  return stored_cell(study, kind, variant, attack, params, adv.images,
                     nullptr);
}

// Both sweeps: every member's cell, realised in parallel into its own slot
// (so the values are thread-count invariant), then the sweep index.
std::vector<ScenarioPoint> sweep(Study& study, const CellKind& kind,
                                 const std::vector<ModelArtifact>& family,
                                 attacks::AttackKind attack,
                                 const attacks::AttackParams& params) {
  std::vector<ScenarioPoint> points(family.size());
  if (family.empty()) return points;
  obs::ScopedPhase phase("sweep");
  for (const ModelArtifact& m : family) require_cell(kind, m);
  // Realising the batch warms all lazily-memoized study state on this
  // thread; worker threads below only read it.
  const AdversarialBatch adv =
      study.adversarial(study.baseline_artifact(), attack, params);
  std::vector<store::Hash> cell_hashes(family.size());
  obs::Counter& cells = obs::counter(kind.counter);
  util::parallel_for(0, family.size(), [&](std::size_t i) {
    obs::Span span(family[i].model.name(), kind.span);
    points[i] = stored_cell(study, kind, family[i], attack, params, adv.images,
                            &cell_hashes[i]);
    cells.add(1);
  });

  // The sweep index is a tiny text artifact whose inputs are every cell
  // (and, transitively via the cells' own provenance, the variants and
  // baseline) plus the shared adversarial batch. Rooting it as
  // sweep-[int8-]<network>-<attack> keeps the sweep's full closure alive; a
  // sweep with any changed axis produces a new index and re-points the
  // root, stranding the old closure for gc().
  const std::string name = std::string(kind.root) + study.config().network +
                           "-" + attacks::attack_name(attack);
  store::Derivation index("sweep-index", name);
  index.set("cells", static_cast<std::int64_t>(cell_hashes.size()));
  for (const store::Hash& h : cell_hashes) index.add_input(h);
  index.add_input(adv.drv);
  std::vector<std::string> lines;
  lines.reserve(cell_hashes.size());
  for (const store::Hash& h : cell_hashes) lines.push_back(h.short_hex());
  std::sort(lines.begin(), lines.end());
  store::Store& s = study.store();
  const std::string path = s.realise(index, [&](const std::string& tmp) {
    std::ofstream f(tmp, std::ios::trunc);
    for (const std::string& line : lines) f << line << "\n";
    if (!f) throw std::runtime_error("sweep index write failed");
  });
  s.add_root("sweep-" + name, path);
  return points;
}

}  // namespace

ScenarioPoint evaluate_scenarios_stored(Study& study,
                                        const ModelArtifact& variant,
                                        attacks::AttackKind attack,
                                        const attacks::AttackParams& params) {
  return single_cell(study, kFloatCells, variant, attack, params);
}

ScenarioPoint evaluate_scenarios_integer_stored(
    Study& study, ModelArtifact& variant, attacks::AttackKind attack,
    const attacks::AttackParams& params) {
  return single_cell(study, kIntegerCells, variant, attack, params);
}

std::vector<ScenarioPoint> sweep_scenarios(
    Study& study, const std::vector<ModelArtifact>& family,
    attacks::AttackKind attack, const attacks::AttackParams& params) {
  return sweep(study, kFloatCells, family, attack, params);
}

std::vector<ScenarioPoint> sweep_scenarios_integer(
    Study& study, std::vector<ModelArtifact>& family,
    attacks::AttackKind attack, const attacks::AttackParams& params) {
  return sweep(study, kIntegerCells, family, attack, params);
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
