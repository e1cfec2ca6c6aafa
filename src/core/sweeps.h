// Compression sweeps: build a family of compressed models from one trained
// baseline and evaluate the attack taxonomy at every compression level.
// These produce the series plotted in Figures 2, 4 and 5 of the paper.
#pragma once

#include <vector>

#include "core/study.h"
#include "core/transfer.h"

namespace con::core {

// One pruned model per density in `densities` (Fig. 2 x-axis), each
// fine-tuned with dynamic network surgery (`one_shot` switches to the
// Han-style ablation), or one quantised model per bitwidth in `bitwidths`
// (Fig. 5 x-axis), each fine-tuned quantisation-aware
// (`quantize_activations=false` is the weight-only ablation for the §4.2
// activation-clipping claim). Each member is realised through the study's
// artifact store, so a family whose baseline and parameters are unchanged
// loads instead of fine-tuning, and changing one grid value rebuilds
// exactly that member.
std::vector<ModelArtifact> build_pruned_family(
    Study& study, const std::vector<double>& densities, bool one_shot = false);
std::vector<ModelArtifact> build_quantized_family(
    Study& study, const std::vector<int>& bitwidths,
    bool quantize_activations = true);

// One transfer-matrix cell, realised through the study's store: the four
// scenario accuracies are computed once per (baseline, variant, attack)
// closure and then served from the store. Throws std::invalid_argument
// for a variant with a zero `drv`.
ScenarioPoint evaluate_scenarios_stored(Study& study,
                                        const ModelArtifact& variant,
                                        attacks::AttackKind attack,
                                        const attacks::AttackParams& params);

// Scenario accuracies for every member of a family built by the builders
// above, under one attack. The output order matches the family order. The
// scenario-2 batch comes from Study::adversarial (itself a store artifact
// shared across attacks of the same closure); each cell is a
// transfer-cell derivation, evaluated in parallel on misses and loaded on
// hits; each cell writes its own slot, so the values are thread-count
// invariant. A "sweep index" artifact listing every cell is registered as the
// GC root sweep-<network>-<attack>, keeping the whole closure (cells,
// variants, adversarial batch, baseline) alive until the next sweep with a
// different configuration re-points it.
std::vector<ScenarioPoint> sweep_scenarios(Study& study,
                                           const std::vector<ModelArtifact>& family,
                                           attacks::AttackKind attack,
                                           const attacks::AttackParams& params);

// Deployed-integer scenario axis through the store. Same cell semantics
// as evaluate_scenarios_integer (the compressed model runs on the int8
// backend; attacks are crafted against the simulated graph), addressed by
// transfer_cell_derivation with the variant's int8 formats so integer cells
// never collide with the float cells of the same (variant, attack) pair. Variants must be
// integer-executable — filter the family with compress::integer_executable
// first (of the paper's bitwidth grid, exactly the 4- and 8-bit members
// qualify). Non-const: the integer entry points populate per-layer packed
// code panels.
ScenarioPoint evaluate_scenarios_integer_stored(
    Study& study, ModelArtifact& variant, attacks::AttackKind attack,
    const attacks::AttackParams& params);

// Store-backed integer sweep; the index artifact roots the closure as
// sweep-int8-<network>-<attack>, parallel to the float sweep's root.
std::vector<ScenarioPoint> sweep_scenarios_integer(
    Study& study, std::vector<ModelArtifact>& family,
    attacks::AttackKind attack, const attacks::AttackParams& params);

// The paper's sweep grids: the --paper-scale axes of bench_figures' F2
// (densities) and F5 (bitwidths).
std::vector<double> paper_density_grid();
std::vector<int> paper_bitwidth_grid();

// "Preferred density" (§4.1): the smallest density whose clean accuracy is
// still within `tolerance` of the dense model's accuracy — the point where
// the network stops overfitting and the cyan line peaks. `densities` and
// `base_accuracies` are parallel arrays; densities need not be sorted.
double preferred_density(const std::vector<double>& densities,
                         const std::vector<double>& base_accuracies,
                         double dense_accuracy, double tolerance = 0.02);

}  // namespace con::core
