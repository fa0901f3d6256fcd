// IncrementalPmc — topology-churn runtime for the probe matrix.
//
// BuildProbeMatrix solves the full greedy cover from scratch; at fat-tree(48) scale that is the
// dominant cost of a recompute cycle (Table 2). Most topology changes, however, touch a handful
// of links. IncrementalPmc persists the solver's state between deltas — per-link selected-path
// weights, the candidate liveness index, and the (static) path-link decomposition — so a churn
// delta costs only:
//   1. drop the selected paths that traverse links that went dead (O(paths through link)),
//   2. find the live links whose coverage fell below alpha and the partition sets the dropped
//      paths were separating,
//   3. greedy repair restricted to the touched decomposition component(s), over the pool of
//      alive candidates that can actually help (paths through an under-covered link or through
//      a merged partition set).
// Links coming back up re-enter the same way: they start uncovered, their candidates revive,
// and the repair pass re-covers and re-resolves them.
//
// Selected paths occupy *stable slots*: applying a delta vacates the slots of dropped paths and
// fills vacated/new slots for repairs, so pinglist entries keyed by slot id stay valid across
// deltas and the controller edits only the entries of changed slots (src/detector/controller.h).
// BuildMatrix() renders the slots as a ProbeMatrix (vacant slots are empty paths, invisible to
// the link->path index).
#ifndef SRC_PMC_INCREMENTAL_H_
#define SRC_PMC_INCREMENTAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/pmc/pmc.h"
#include "src/pmc/probe_matrix.h"
#include "src/routing/path_liveness.h"
#include "src/routing/path_store.h"
#include "src/topo/delta.h"

namespace detector {

struct ChurnRepairStats {
  double seconds = 0.0;
  uint64_t dropped_paths = 0;    // selected paths invalidated by links going dead
  uint64_t added_paths = 0;      // paths selected by the repair greedy
  uint64_t repaired_links = 0;   // live links re-raised to >= alpha coverage
  uint64_t pool_candidates = 0;  // alive candidates the repair greedy considered
  uint64_t score_evaluations = 0;
  int touched_components = 0;
  int32_t uncoverable_live_links = 0;  // live monitored links no alive candidate can cover
  bool alpha_satisfied = true;
  bool fully_resolved = true;
};

class IncrementalPmc {
 public:
  // Takes ownership of the candidate store and runs the initial full solve (all links live).
  IncrementalPmc(const Topology& topo, PathStore candidates, PmcOptions options);

  struct DeltaOutcome {
    ChurnRepairStats stats;
    std::vector<PathId> removed_slots;  // matrix slots vacated by this delta, ascending
    std::vector<PathId> added_slots;    // matrix slots filled by this delta, ascending
  };

  // Applies the effective link transitions of one topology delta (from LinkStateOverlay).
  DeltaOutcome ApplyDelta(const LinkStateOverlay::Effect& effect);

  // Held only for perfbench/traced_pipeline.cc, which passes
  // DetectorSystemOptions::pmc_repair_threads (1 unless set) until the benchmark's next
  // change: ApplyDelta repairs serially, so 1 is the only value it accepts.
  void set_repair_threads(int threads) { CHECK(threads == 1); }

  // From-scratch re-solve over the current live topology — the expensive alternative that
  // ApplyDelta is benchmarked against, and what a 10-minute RecomputeCycle uses. Renumbers
  // every slot, so callers must rebuild pinglists afterwards.
  PmcStats FullResolve();

  // Current selection as a probe matrix with stable slot ids over the full monitored-link
  // domain. Vacant slots render as empty paths.
  ProbeMatrix BuildMatrix() const;
  // Compact selection over the live-link domain only (no tombstones) — what equivalence
  // checks and identifiability verification run on.
  ProbeMatrix BuildLiveMatrix() const;

  const PmcStats& initial_stats() const { return initial_stats_; }
  const PmcOptions& options() const { return options_; }
  const Topology& topology() const { return topo_; }
  const PathStore& candidates() const { return candidates_; }
  const PathLiveness& liveness() const { return liveness_; }
  const LinkIndex& link_index() const { return links_; }

  bool IsLinkLive(LinkId link) const {
    const int32_t dense = links_.Dense(link);
    return dense >= 0 && live_[static_cast<size_t>(dense)] != 0;
  }
  // Number of selected paths covering the given monitored link.
  int32_t Weight(LinkId link) const {
    const int32_t dense = links_.Dense(link);
    CHECK(dense >= 0) << "link " << link << " is not monitored";
    return w_[static_cast<size_t>(dense)];
  }

  size_t NumSelected() const { return num_selected_; }
  size_t NumSlots() const { return slots_.size(); }
  // Candidate id occupying the slot, or -1 when vacant.
  PathId SlotCandidate(PathId slot) const { return slots_[static_cast<size_t>(slot)]; }
  // Candidate-store ids of all selected paths, ascending.
  std::vector<PathId> SelectedCandidateIds() const;

  // True when every live monitored link reaches alpha coverage (statically uncoverable links
  // excepted, matching PmcStats::alpha_satisfied).
  bool AlphaSatisfied() const;

 private:
  struct LiveDomain;

  void AdoptSelection(const std::vector<PathId>& candidate_ids, bool solver_fully_resolved);
  void Select(PathId candidate, std::vector<PathId>* added_slots);
  void Unselect(PathId candidate, std::vector<PathId>* removed_slots);
  void SetLinkLive(int32_t dense, bool live);
  LiveDomain ReplayComponent(int32_t comp) const;
  // The candidate's monitored links as local ids of `domain`; every one must be live there.
  void LocalLinksOf(const LiveDomain& domain, PathId candidate, std::vector<int32_t>& out) const;
  void RepairComponent(int32_t comp, DeltaOutcome& out);
  void RefreshComponentResolution();
  std::vector<LinkId> LiveMonitoredLinks() const;

  const Topology& topo_;
  PmcOptions options_;
  PathStore candidates_;
  LinkIndex links_;
  PathLiveness liveness_;
  PmcStats initial_stats_;

  // Static decomposition of the candidate path-link graph (components can only shrink under
  // churn, so these are sound — if conservative — repair scopes).
  std::vector<std::vector<int32_t>> component_links_;  // dense links by component, ascending
  std::vector<int32_t> comp_of_link_;  // dense link -> component, -1 = statically uncoverable
  std::vector<int32_t> comp_of_path_;  // candidate -> component, -1 = no monitored link
  std::vector<uint8_t> comp_resolved_;

  std::vector<uint8_t> live_;  // per dense link
  std::vector<int32_t> w_;     // per dense link: selected paths covering it
  int64_t num_undercovered_ = 0;  // live links with w < alpha

  std::vector<PathId> slots_;  // slot -> candidate id, -1 = vacant
  std::vector<PathId> free_slots_;
  std::unordered_map<PathId, PathId> slot_of_;  // candidate id -> slot
  std::vector<uint8_t> selected_;               // per candidate
  size_t num_selected_ = 0;
};

}  // namespace detector

#endif  // SRC_PMC_INCREMENTAL_H_
