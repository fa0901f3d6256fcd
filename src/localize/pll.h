// PLL — Packet Loss Localization (§5.3). Tomo-style greedy minimum-hitting-set over the lossy
// paths, with two DCN-specific changes: (1) the problem is decomposed along the probe matrix's
// bipartite components first, and (2) candidate links are filtered by a hit-ratio threshold so
// partial losses (e.g. packet blackholes that only affect some flows crossing a link) do not
// disqualify the true culprit or promote innocent links.
//
// One scorer implements the rules (PllLocalizer::RescoreComponent): LocalizeIncremental runs it
// per dirty component of the matrix's decomposition, LocalizeView runs it once over the whole
// matrix. The independent monolithic pass both are gated against lives in tests/pll_reference.h.
#ifndef SRC_LOCALIZE_PLL_H_
#define SRC_LOCALIZE_PLL_H_

#include "src/localize/localizer.h"
#include "src/localize/preprocess.h"
#include "src/pmc/decomposition.h"

namespace detector {

struct PllOptions {
  double hit_ratio_threshold = 0.6;  // paper default (§5.3)
  PreprocessOptions preprocess;
};

// Carried-over state for LocalizeIncremental: the decomposition of the matrix's paths over its
// links (Observation 1), the per-component suspect verdicts from the previous boundary,
// per-path valid/lossy bits as of each component's last re-score, and scratch buffers reused
// across re-scores so a single-dirty-component call allocates nothing proportional to the
// matrix. The owner must clear `structure_valid` whenever the probe matrix changes
// structurally (slot reuse after an incremental repair keeps the dimensions but rewires paths,
// so a dimension check alone is not enough) — the next call then decomposes the matrix again
// and re-scores everything.
struct PllIncrementalState {
  bool structure_valid = false;
  Decomposition decomposition;
  std::vector<std::vector<SuspectLink>> verdicts;  // by component id
  std::vector<uint8_t> valid;                      // by path, as of the last re-score
  std::vector<uint8_t> lossy;
  // Scratch, sized to the matrix; only the touched component's entries are (re)written.
  std::vector<double> hit_ratio;
  std::vector<int64_t> score;
  std::vector<uint8_t> chosen;
  std::vector<uint8_t> explained;
};

class PllLocalizer : public Localizer {
 public:
  explicit PllLocalizer(PllOptions options = PllOptions{}) : options_(options) {}

  std::string name() const override { return "PLL"; }
  LocalizeResult Localize(const ProbeMatrix& matrix, const Observations& obs) const override;

  // One-shot localization over a non-owning view — the ObservationStore's running totals
  // localize without ever being copied into an owned vector. Scores the whole matrix as one
  // component (every path and every dense link, ascending) with the same scorer
  // LocalizeIncremental runs per component, so the two agree bit-for-bit by construction.
  LocalizeResult LocalizeView(const ProbeMatrix& matrix, ObservationView obs) const;

  // Incremental localization over the matrix's components: re-scores only components
  // containing a slot in `dirty_slots` (or everything when `all_dirty`), reuses the verdicts
  // cached in `state` for clean components, and merges in deterministic component order.
  // Bit-identical to LocalizeView on the same observations — the greedy never interacts
  // across components, and both order suspects by (explained losses desc, link asc).
  // tests/incremental_diagnosis_test.cc and tests/property_test.cc gate both against the
  // monolithic reference pass in tests/pll_reference.h. Cost per call: O(dirty component
  // sizes), not O(matrix).
  LocalizeResult LocalizeIncremental(const ProbeMatrix& matrix, ObservationView obs,
                                     std::span<const PathId> dirty_slots, bool all_dirty,
                                     PllIncrementalState& state) const;

 private:
  // Steps 2-5 plus redundancy elimination, restricted to one component's paths/links — the
  // one implementation of PLL's scoring rules. Writes state.valid/state.lossy for the
  // component's paths and uses the state scratch buffers, which must be sized to the matrix.
  void RescoreComponent(const ProbeMatrix& matrix, ObservationView obs,
                        std::span<const PathId> paths, std::span<const int32_t> links,
                        PllIncrementalState& state, std::vector<SuspectLink>& out) const;
  // Sizes the per-path and per-link scratch buffers of `state` to the matrix, zeroed.
  static void SizeScratch(const ProbeMatrix& matrix, PllIncrementalState& state);

  PllOptions options_;
};

}  // namespace detector

#endif  // SRC_LOCALIZE_PLL_H_
