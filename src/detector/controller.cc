#include "src/detector/controller.h"

#include <algorithm>
#include <map>
#include <set>

namespace detector {
namespace {

std::vector<NodeId> HealthyUnder(const Topology& topo, NodeId tor, const Watchdog& watchdog) {
  std::vector<NodeId> servers;
  for (const Neighbor& nb : topo.NeighborsOf(tor)) {
    if (topo.IsServer(nb.node) && watchdog.IsHealthy(nb.node)) {
      servers.push_back(nb.node);
    }
  }
  return servers;
}

// The intra-rack entry towards `target`, reached from `tor` over `rack_link`, and the pinger
// that probes it: any pinger under the ToR other than the target itself, rotated by target id
// (a pinger's own server link is exercised by its outgoing matrix probes anyway). The pinger
// is kInvalidNode when no other pinger stands under the ToR. Shared by BuildPinglists and the
// delta re-add path so a recovered server gets its entry back under the same rule that placed
// it originally.
std::pair<NodeId, PinglistEntry> IntraRackEntry(const Topology& topo,
                                                const std::vector<NodeId>& pingers, NodeId tor,
                                                NodeId target, LinkId rack_link) {
  std::pair<NodeId, PinglistEntry> out{kInvalidNode, PinglistEntry{}};
  for (size_t i = 0; i < pingers.size(); ++i) {
    const NodeId candidate = pingers[(static_cast<size_t>(target) + i) % pingers.size()];
    if (candidate != target) {
      out.first = candidate;
      break;
    }
  }
  if (out.first != kInvalidNode) {
    out.second.path_id = PinglistEntry::kIntraRackPath;
    out.second.target_server = target;
    out.second.route = {topo.FindLink(out.first, tor), rack_link};
  }
  return out;
}

template <typename T>
void SortUnique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// Pinger/target choices per ToR, cached for one BuildPinglists/UpdatePinglists invocation.
class PingersOfTor {
 public:
  PingersOfTor(const Topology& topo, const Watchdog& watchdog, const ControllerOptions& options)
      : topo_(topo), watchdog_(watchdog), options_(options) {}

  const std::vector<NodeId>& Under(NodeId tor) {
    auto [it, inserted] = cache_.try_emplace(tor);
    if (inserted) {
      std::vector<NodeId> healthy = HealthyUnder(topo_, tor, watchdog_);
      if (static_cast<int>(healthy.size()) > options_.pingers_per_tor) {
        healthy.resize(static_cast<size_t>(options_.pingers_per_tor));
      }
      it->second = std::move(healthy);
    }
    return it->second;
  }

 private:
  const Topology& topo_;
  const Watchdog& watchdog_;
  const ControllerOptions& options_;
  std::map<NodeId, std::vector<NodeId>> cache_;
};

// Builds the (pinger, entry) assignments for one matrix path. Empty paths (vacated slots of an
// incrementally-maintained matrix) yield nothing.
void EntriesForPath(const Topology& topo, const ControllerOptions& options,
                    const Watchdog& watchdog, const PathStore& paths, PathId pid,
                    PingersOfTor& pingers_of_tor,
                    std::vector<std::pair<NodeId, PinglistEntry>>& out) {
  const auto links = paths.Links(pid);
  if (links.empty()) {
    return;
  }
  const NodeId src = paths.src(pid);
  const NodeId dst = paths.dst(pid);
  const size_t p = static_cast<size_t>(pid);

  if (topo.IsServer(src)) {
    // Server-endpoint topology (BCube): the path's endpoints are the pinger/responder.
    if (!watchdog.IsHealthy(src) || !watchdog.IsHealthy(dst)) {
      return;
    }
    PinglistEntry entry;
    entry.path_id = pid;
    entry.target_server = dst;
    entry.route.assign(links.begin(), links.end());
    out.emplace_back(src, std::move(entry));
    return;
  }

  // ToR-endpoint path: replicate over pingers under the source ToR; the responder under the
  // destination ToR is rotated by path id for entropy.
  const std::vector<NodeId>& pingers = pingers_of_tor.Under(src);
  const std::vector<NodeId>& responders = pingers_of_tor.Under(dst);
  if (pingers.empty() || responders.empty()) {
    return;
  }
  const NodeId target = responders[p % responders.size()];
  const LinkId target_link = topo.FindLink(target, dst);
  CHECK(target_link != kInvalidLink);
  const int replicas = std::min<int>(options.replicas_per_path, static_cast<int>(pingers.size()));
  for (int r = 0; r < replicas; ++r) {
    const NodeId pinger = pingers[(p + static_cast<size_t>(r)) % pingers.size()];
    const LinkId pinger_link = topo.FindLink(pinger, src);
    CHECK(pinger_link != kInvalidLink);
    PinglistEntry entry;
    entry.path_id = pid;
    entry.target_server = target;
    entry.route.reserve(links.size() + 2);
    entry.route.push_back(pinger_link);
    entry.route.insert(entry.route.end(), links.begin(), links.end());
    entry.route.push_back(target_link);
    out.emplace_back(pinger, std::move(entry));
  }
}

}  // namespace

PathPingerIndex PathPingerIndex::Build(std::span<const Pinglist> lists) {
  PathPingerIndex index;
  for (size_t i = 0; i < lists.size(); ++i) {
    const Pinglist& list = lists[i];
    index.SetListOf(list.pinger, i);
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id >= 0) {
        index.Add(entry.path_id, list.pinger);
      }
    }
  }
  return index;
}

void PathPingerIndex::Add(PathId path, NodeId pinger) {
  CHECK(path >= 0);
  const size_t p = static_cast<size_t>(path);
  if (p >= pingers_of_path_.size()) {
    pingers_of_path_.resize(p + 1);
  }
  pingers_of_path_[p].push_back(pinger);
}

void PathPingerIndex::ClearPath(PathId path) {
  const size_t p = static_cast<size_t>(path);
  if (path >= 0 && p < pingers_of_path_.size()) {
    pingers_of_path_[p].clear();
  }
}

void PathPingerIndex::SetListOf(NodeId pinger, size_t position) {
  CHECK(pinger >= 0);
  const size_t p = static_cast<size_t>(pinger);
  if (p >= list_of_pinger_.size()) {
    list_of_pinger_.resize(p + 1, -1);
  }
  list_of_pinger_[p] = static_cast<int32_t>(position);
}

size_t PathPingerIndex::NumIndexedPaths() const {
  size_t n = 0;
  for (const auto& pingers : pingers_of_path_) {
    n += pingers.empty() ? 0 : 1;
  }
  return n;
}

std::vector<Pinglist> Controller::BuildPinglists(const ProbeMatrix& matrix,
                                                 const Watchdog& watchdog) {
  const int version = ++version_;
  std::map<NodeId, Pinglist> by_pinger;  // ordered for determinism
  auto pinglist_of = [&](NodeId pinger) -> Pinglist& {
    auto [it, inserted] = by_pinger.try_emplace(pinger);
    if (inserted) {
      it->second.version = version;
      it->second.pinger = pinger;
      it->second.packets_per_second = options_.packets_per_second;
      it->second.port_count = options_.port_count;
    }
    return it->second;
  };

  PingersOfTor pingers_of_tor(topo_, watchdog, options_);
  const PathStore& paths = matrix.paths();
  std::vector<std::pair<NodeId, PinglistEntry>> assignments;
  for (size_t p = 0; p < paths.size(); ++p) {
    assignments.clear();
    EntriesForPath(topo_, options_, watchdog, paths, static_cast<PathId>(p), pingers_of_tor,
                   assignments);
    for (auto& [pinger, entry] : assignments) {
      pinglist_of(pinger).entries.push_back(std::move(entry));
    }
  }

  // Intra-rack probes: each pinger probes the other servers under its ToR, covering the
  // server-ToR links that the matrix does not.
  if (options_.intra_rack_probes) {
    for (const NodeId tor : topo_.NodesOfKind(NodeKind::kTor)) {
      const std::vector<NodeId>& pingers = pingers_of_tor.Under(tor);
      for (const Neighbor& nb : topo_.NeighborsOf(tor)) {
        if (!topo_.IsServer(nb.node) || !watchdog.IsHealthy(nb.node)) {
          continue;
        }
        auto [pinger, entry] = IntraRackEntry(topo_, pingers, tor, nb.node, nb.link);
        if (pinger != kInvalidNode) {
          pinglist_of(pinger).entries.push_back(std::move(entry));
        }
      }
    }
  }

  std::vector<Pinglist> result;
  result.reserve(by_pinger.size());
  for (auto& [pinger, list] : by_pinger) {
    result.push_back(std::move(list));
  }
  return result;
}

PinglistUpdate Controller::UpdatePinglists(std::vector<Pinglist>& lists,
                                           const ProbeMatrix& matrix, const Watchdog& watchdog,
                                           std::span<const PathId> removed_paths,
                                           std::span<const PathId> added_paths,
                                           std::span<const NodeId> downed_targets,
                                           std::span<const NodeId> recovered_targets,
                                           PathPingerIndex* index) {
  CHECK(index != nullptr) << "UpdatePinglists needs the lists' PathPingerIndex";
  PinglistUpdate update;
  if (removed_paths.empty() && added_paths.empty() && downed_targets.empty() &&
      recovered_targets.empty()) {
    return update;
  }
  std::vector<PathId> removed(removed_paths.begin(), removed_paths.end());
  std::vector<PathId> added(added_paths.begin(), added_paths.end());
  std::vector<NodeId> downed(downed_targets.begin(), downed_targets.end());
  std::vector<NodeId> recovered(recovered_targets.begin(), recovered_targets.end());
  SortUnique(removed);
  SortUnique(added);
  SortUnique(downed);
  SortUnique(recovered);
  auto is_downed = [&](NodeId node) {
    return std::binary_search(downed.begin(), downed.end(), node);
  };

  // Server churn: one walk of the standing lists finds the matrix paths a downed server pings
  // or answers, the lists holding an intra-rack entry a downed server pings or answers, the
  // targets a downed pinger probed inside its rack, and the recovered servers an intra-rack
  // entry still targets. Link- and switch-only deltas skip it.
  std::set<NodeId> visit;  // lists removal visits, ordered by pinger for a deterministic order
  std::vector<NodeId> orphaned;  // intra-rack targets of a downed pinger, in walk order
  std::vector<NodeId> still_targeted;
  if (!downed.empty() || !recovered.empty()) {
    std::vector<PathId> moved;
    for (const Pinglist& list : lists) {
      const bool pinger_down = is_downed(list.pinger);
      for (const PinglistEntry& entry : list.entries) {
        const bool target_down = is_downed(entry.target_server);
        if (entry.path_id >= 0) {
          if (pinger_down || target_down) {
            moved.push_back(entry.path_id);
          }
        } else if (pinger_down || target_down) {
          visit.insert(list.pinger);
          if (!target_down) {
            orphaned.push_back(entry.target_server);
          }
        } else if (std::binary_search(recovered.begin(), recovered.end(),
                                      entry.target_server)) {
          still_targeted.push_back(entry.target_server);
        }
      }
    }
    // A moved path is withdrawn from every replica and dispatched again under the watchdog,
    // unless the delta already removes it.
    for (const PathId pid : moved) {
      if (!std::binary_search(removed.begin(), removed.end(), pid)) {
        added.push_back(pid);
      }
    }
    removed.insert(removed.end(), moved.begin(), moved.end());
    SortUnique(removed);
    SortUnique(added);
  }
  update.paths_removed = removed.size();
  update.paths_added = added.size();

  // Every list that loses or gains an entry carries this version; the counter advances only
  // if one does.
  const int version = version_ + 1;
  auto touch = [&](Pinglist& list) {
    if (list.version != version) {
      list.version = version;
      ++update.lists_touched;
    }
  };

  // Removals: drop every entry measuring a removed path, plus every intra-rack entry a downed
  // server pings or answers. Only the lists the index or the walk names as holding a matching
  // entry are visited.
  auto remove_from_list = [&](Pinglist& list) {
    const bool pinger_down = is_downed(list.pinger);
    auto keep = list.entries.begin();
    for (auto it = list.entries.begin(); it != list.entries.end(); ++it) {
      const bool hit = it->path_id >= 0
                           ? std::binary_search(removed.begin(), removed.end(), it->path_id)
                           : pinger_down || is_downed(it->target_server);
      if (hit) {
        touch(list);
        ++update.entries_removed;
        continue;
      }
      if (keep != it) {
        *keep = std::move(*it);
      }
      ++keep;
    }
    list.entries.erase(keep, list.entries.end());
  };
  for (const PathId pid : removed) {
    for (const NodeId pinger : index->PingersOf(pid)) {
      visit.insert(pinger);
    }
    index->ClearPath(pid);
  }
  for (const NodeId pinger : visit) {
    const int32_t list = index->ListOf(pinger);
    CHECK(list >= 0) << "index names a pinger with no standing list";
    remove_from_list(lists[static_cast<size_t>(list)]);
  }

  // Additions: same assignment rules as BuildPinglists; a pinger that had no list yet gets a
  // fresh one.
  auto add_entry = [&](NodeId pinger, PinglistEntry entry) {
    int32_t position = index->ListOf(pinger);
    if (position < 0) {
      position = static_cast<int32_t>(lists.size());
      index->SetListOf(pinger, lists.size());
      Pinglist fresh;
      fresh.version = 0;  // below every stamped version: the first add stamps it
      fresh.pinger = pinger;
      fresh.packets_per_second = options_.packets_per_second;
      fresh.port_count = options_.port_count;
      lists.push_back(std::move(fresh));
    }
    Pinglist& list = lists[static_cast<size_t>(position)];
    touch(list);
    list.entries.push_back(std::move(entry));
    ++update.entries_added;
  };
  PingersOfTor pingers_of_tor(topo_, watchdog, options_);
  std::vector<std::pair<NodeId, PinglistEntry>> assignments;
  for (const PathId pid : added) {
    assignments.clear();
    EntriesForPath(topo_, options_, watchdog, matrix.paths(), pid, pingers_of_tor, assignments);
    for (auto& [pinger, entry] : assignments) {
      index->Add(pid, pinger);
      add_entry(pinger, std::move(entry));
    }
  }

  // Intra-rack placements, under the deterministic BuildPinglists choice over the rack's
  // healthy pingers: each healthy target a downed pinger probed, then each recovered server
  // no standing entry targets (a recovery that raced a full rebuild finds its entry standing).
  if (options_.intra_rack_probes) {
    auto place = [&](NodeId target) {
      if (!watchdog.IsHealthy(target) ||  // flagged again before the delta dispatched
          std::find(still_targeted.begin(), still_targeted.end(), target) !=
              still_targeted.end()) {
        return;
      }
      for (const Neighbor& nb : topo_.NeighborsOf(target)) {
        if (topo_.node(nb.node).kind != NodeKind::kTor) {
          continue;  // BuildPinglists probes inside ToR racks only
        }
        auto [pinger, entry] =
            IntraRackEntry(topo_, pingers_of_tor.Under(nb.node), nb.node, target, nb.link);
        if (pinger != kInvalidNode) {
          add_entry(pinger, std::move(entry));
          still_targeted.push_back(target);
        }
        break;
      }
    };
    for (const NodeId target : orphaned) {
      place(target);
    }
    for (const NodeId target : recovered_targets) {
      place(target);
    }
  }

  if (update.lists_touched > 0) {
    version_ = version;
  }
  return update;
}

}  // namespace detector
