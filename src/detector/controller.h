// Controller (§3.1): owns the probe matrix lifecycle. Each cycle it selects pingers (2-4
// healthy servers per ToR), splits the probe matrix's paths among them — every path replicated
// to >= 2 pingers for fault tolerance — and emits per-pinger pinglists. Also schedules
// intra-rack probes so server-ToR links are covered outside the matrix.
//
// Under topology churn the controller does not regenerate every pinglist: UpdatePinglists
// applies the probe-matrix delta (paths removed / paths added, by stable matrix slot id) to the
// standing pinglists in place. Versions come from one counter in the controller: each
// BuildPinglists, and each UpdatePinglists that touches a list, takes the next version and
// stamps it on every list it built or touched. So a pinger's version rises whenever its list
// changes and never falls, across deltas, rebuilds and absences from the pinglist set.
#ifndef SRC_DETECTOR_CONTROLLER_H_
#define SRC_DETECTOR_CONTROLLER_H_

#include <span>
#include <vector>

#include "src/detector/pinglist.h"
#include "src/pmc/probe_matrix.h"
#include "src/sim/watchdog.h"

namespace detector {

struct ControllerOptions {
  int pingers_per_tor = 2;     // paper: 2-4
  int replicas_per_path = 2;   // each path in >= 2 pinglists
  double packets_per_second = 10.0;
  int port_count = 8;
  bool intra_rack_probes = true;
};

// Maintained path -> pinger replica index over a set of standing pinglists, plus each
// pinger's position in those lists. With it, UpdatePinglists dispatches a probe-matrix delta
// by consulting only the removed slots' replica pingers instead of scanning every pinglist
// entry — the dispatch analogue of the component-restricted matrix repair, sized for
// fat-tree(48) churn — and finds each of their lists in O(1). It indexes matrix slots only:
// server churn finds its entries with one walk of the standing lists.
class PathPingerIndex {
 public:
  PathPingerIndex() = default;

  // Rebuilds from scratch — call after BuildPinglists replaces the standing lists wholesale.
  static PathPingerIndex Build(std::span<const Pinglist> lists);

  // Pingers holding a replica entry for the slot (unordered; empty when none).
  std::span<const NodeId> PingersOf(PathId path) const {
    const size_t p = static_cast<size_t>(path);
    static const std::vector<NodeId> kNone;
    return path >= 0 && p < pingers_of_path_.size() ? pingers_of_path_[p] : kNone;
  }

  void Add(PathId path, NodeId pinger);
  // Drops every replica record for the slot (the slot left the standing lists entirely).
  void ClearPath(PathId path);

  size_t NumIndexedPaths() const;

  // Position of `pinger`'s list among the standing lists, or -1 when it has none.
  int32_t ListOf(NodeId pinger) const {
    const size_t p = static_cast<size_t>(pinger);
    return pinger >= 0 && p < list_of_pinger_.size() ? list_of_pinger_[p] : -1;
  }
  // Records that `pinger`'s list stands at `position` (a list appended to the standing ones).
  void SetListOf(NodeId pinger, size_t position);

 private:
  std::vector<std::vector<NodeId>> pingers_of_path_;  // indexed by matrix slot
  std::vector<int32_t> list_of_pinger_;                // indexed by pinger id; -1 = no list
};

struct PinglistUpdate {
  size_t paths_removed = 0;  // distinct matrix paths withdrawn
  size_t paths_added = 0;    // distinct matrix paths dispatched
  size_t entries_removed = 0;
  size_t entries_added = 0;
  size_t lists_touched = 0;  // lists that lost or gained an entry
};

class Controller {
 public:
  Controller(const Topology& topo, ControllerOptions options)
      : topo_(topo), options_(options) {}

  // Splits the matrix into pinglists given current server health. Paths whose source has no
  // healthy server are skipped (their loss of coverage shows up in the diagnoser as untested
  // paths). For server-endpoint topologies (BCube) the path's source server is its own pinger.
  // Every list carries the next version.
  std::vector<Pinglist> BuildPinglists(const ProbeMatrix& matrix, const Watchdog& watchdog);

  // Applies a probe-matrix delta to the standing pinglists this controller built: removes
  // every entry measuring a path in `removed_paths`, then builds and appends entries for each
  // path in `added_paths` (same assignment rules as BuildPinglists; both lists are sorted and
  // deduplicated here). Every list that lost or gained an entry carries the next version; a
  // call that touches no list takes none. A pinger with no surviving entries keeps its
  // (empty) pinglist.
  //
  // Server churn rides the same delta, and this is the one place that decides what it does to
  // the standing lists, found with one walk of them (taken only when `downed_targets` or
  // `recovered_targets` is non-empty). Every matrix entry a server in `downed_targets` pings
  // or answers is withdrawn from every replica, and its path is dispatched again under
  // `watchdog` — unless `removed_paths` already names it. Every intra-rack entry a downed
  // server pings or answers is removed, and each healthy target a downed pinger probed is
  // placed again under the deterministic pinger choice BuildPinglists makes over the rack's
  // healthy pingers. For each server in `recovered_targets` the intra-rack entry towards it
  // is re-added under the same choice — unless one still stands. So past the delta that
  // downed a server, the standing pinglists carry no entry it pings or answers; the
  // probe-time skip in the pinger stays as defense-in-depth for servers flagged outside the
  // delta flow.
  //
  // `index` (non-null, built over these lists and kept current across calls) names the
  // lists removal dispatch visits for the removed slots and where each pinger's list stands,
  // and is updated in place. Lists keep their order; a pinger's first list is appended.
  PinglistUpdate UpdatePinglists(std::vector<Pinglist>& lists, const ProbeMatrix& matrix,
                                 const Watchdog& watchdog,
                                 std::span<const PathId> removed_paths,
                                 std::span<const PathId> added_paths,
                                 std::span<const NodeId> downed_targets,
                                 std::span<const NodeId> recovered_targets,
                                 PathPingerIndex* index);

  const ControllerOptions& options() const { return options_; }

 private:
  const Topology& topo_;
  ControllerOptions options_;
  int version_ = 0;  // the last version stamped on a list
};

}  // namespace detector

#endif  // SRC_DETECTOR_CONTROLLER_H_
