// Controller (§3.1): owns the probe matrix lifecycle. Each cycle it selects pingers (2-4
// healthy servers per ToR), splits the probe matrix's paths among them — every path replicated
// to >= 2 pingers for fault tolerance — and emits per-pinger pinglists. Also schedules
// intra-rack probes so server-ToR links are covered outside the matrix.
//
// Under topology churn the controller does not regenerate every pinglist: UpdatePinglists
// applies the probe-matrix delta (paths removed / paths added, by stable matrix slot id) to the
// standing pinglists in place and emits one minimal versioned diff per touched pinger — the
// wire-sized work order a production pinger would fetch instead of a full pinglist.
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

// One removal in a pinglist diff, keyed by (path, target) — the same key that identifies an
// entry. Matrix entries are named by their slot id (a pinger holds at most one replica per
// slot; the target records which one it was), and intra-rack entries (path ==
// PinglistEntry::kIntraRackPath) are named by their target server — which is what lets a
// delta withdraw the intra-rack entries towards a downed server instead of leaving them to
// age out at the next full rebuild.
struct PinglistRemoval {
  PathId path = -1;
  NodeId target = kInvalidNode;

  bool operator==(const PinglistRemoval&) const = default;
  auto operator<=>(const PinglistRemoval&) const = default;
};

// Per-pinger pinglist change: entries dropped (by (path, target) key) and entries appended,
// plus the pinglist version after applying the diff. Serialized/applied in this order:
// removals, then additions. The XML wire format mirrors the full-pinglist one, so a real
// pinger can fetch deltas over the same channel it fetches lists.
struct PinglistDiff {
  NodeId pinger = kInvalidNode;
  int version = 0;
  std::vector<PinglistRemoval> removed;
  std::vector<PinglistEntry> added;

  std::string ToXml() const;
  static PinglistDiff FromXml(const std::string& xml);
};

// Maintained path -> pinger replica index over a set of standing pinglists. With it,
// UpdatePinglists dispatches a probe-matrix delta by consulting only the removed slots'
// replica pingers instead of scanning every pinglist entry — the dispatch analogue of the
// component-restricted matrix repair, sized for fat-tree(48) churn. It indexes matrix slots
// only: server churn finds its entries with one walk of the standing lists.
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

 private:
  std::vector<std::vector<NodeId>> pingers_of_path_;  // indexed by matrix slot
};

struct PinglistUpdate {
  std::vector<PinglistDiff> diffs;  // one per touched pinger, ascending pinger id
  size_t paths_removed = 0;  // distinct matrix paths withdrawn
  size_t paths_added = 0;    // distinct matrix paths dispatched
  size_t entries_removed = 0;
  size_t entries_added = 0;
  size_t lists_touched = 0;
};

class Controller {
 public:
  Controller(const Topology& topo, ControllerOptions options)
      : topo_(topo), options_(options) {}

  // Splits the matrix into pinglists given current server health. Paths whose source has no
  // healthy server are skipped (their loss of coverage shows up in the diagnoser as untested
  // paths). For server-endpoint topologies (BCube) the path's source server is its own pinger.
  std::vector<Pinglist> BuildPinglists(const ProbeMatrix& matrix, const Watchdog& watchdog) const;

  // Applies a probe-matrix delta to standing pinglists: removes every entry measuring a path
  // in `removed_paths`, then builds and appends entries for each path in `added_paths` (same
  // assignment rules as BuildPinglists; both lists are sorted and deduplicated here). Bumps
  // the version of every touched pinglist exactly once and returns the per-pinger diffs. A
  // pinger with no surviving entries keeps its (empty) pinglist so a later delta can
  // repopulate it without renumbering versions.
  //
  // Server churn rides the same delta, and this is the one place that decides what it does to
  // the standing lists, found with one walk of them (taken only when `downed_targets` or
  // `recovered_targets` is non-empty). Every matrix entry a server in `downed_targets` pings
  // or answers is withdrawn from every replica, and its path is dispatched again under
  // `watchdog` — unless `removed_paths` already names it or its slot is empty. Every
  // intra-rack entry targeting a downed server is removed (diffed as a (kIntraRackPath,
  // target) removal), and for each server in `recovered_targets` the intra-rack entry towards
  // it is re-added under the same deterministic pinger choice BuildPinglists makes — unless
  // one still stands. So the standing pinglists never carry an entry towards a
  // watchdog-downed server past the delta that downed it; the probe-time skip in the pinger
  // stays as defense-in-depth for servers flagged outside the delta flow.
  //
  // `index` (non-null, built over these lists and kept current across calls) names the
  // lists removal dispatch visits for the removed slots, and is updated in place.
  PinglistUpdate UpdatePinglists(std::vector<Pinglist>& lists, const ProbeMatrix& matrix,
                                 const Watchdog& watchdog,
                                 std::span<const PathId> removed_paths,
                                 std::span<const PathId> added_paths,
                                 std::span<const NodeId> downed_targets,
                                 std::span<const NodeId> recovered_targets,
                                 PathPingerIndex* index) const;

  const ControllerOptions& options() const { return options_; }

 private:
  std::vector<NodeId> HealthyServersUnder(NodeId tor, const Watchdog& watchdog) const;

  const Topology& topo_;
  ControllerOptions options_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_CONTROLLER_H_
