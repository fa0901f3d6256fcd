// Topology churn: typed deltas (link/node up, down, drain) and the live link-state overlay
// the runtime layers share.
//
// The base Topology stays immutable — churn never edits the graph. Instead a LinkStateOverlay
// tracks which links are administratively drained or failed (directly or via an endpoint node)
// and reduces every delta to its *effective* link transitions: the set of links that went
// live -> dead and dead -> live. Downstream layers (path invalidation, incremental PMC, pinglist
// delta dispatch) consume only those transitions, so a redundant event (downing a link twice,
// draining a link whose endpoint is already down) costs nothing.
//
// Semantics:
//   down   — the link/node failed; probes routed across it experience full loss until the
//            probe plane is repaired (the simulator injects kFullLoss for down-not-drained
//            links during mid-window churn).
//   drain  — administratively removed from monitoring (maintenance): still forwards traffic,
//            but the probe plane must stop counting on it; no coverage requirement applies.
//   up     — reverses down; a link is live again only once it is neither down nor drained and
//            both endpoints are live.
#ifndef SRC_TOPO_DELTA_H_
#define SRC_TOPO_DELTA_H_

#include <cstdint>
#include <vector>

#include "src/topo/topology.h"

namespace detector {

enum class ChurnAction : uint8_t {
  kDown = 0,
  kUp = 1,
  kDrain = 2,
  kUndrain = 3,
};

const char* ChurnActionName(ChurnAction action);

struct LinkChurn {
  LinkId link = kInvalidLink;
  ChurnAction action = ChurnAction::kDown;
};

struct NodeChurn {
  NodeId node = kInvalidNode;
  ChurnAction action = ChurnAction::kDown;
};

// One batch of topology changes, applied atomically by LinkStateOverlay::Apply. A node event
// affects every incident link (a down switch takes all its links down with it).
struct TopologyDelta {
  std::vector<LinkChurn> links;
  std::vector<NodeChurn> nodes;

  bool empty() const { return links.empty() && nodes.empty(); }

  static TopologyDelta LinkDown(LinkId link) { return Single(link, ChurnAction::kDown); }
  static TopologyDelta LinkUp(LinkId link) { return Single(link, ChurnAction::kUp); }
  static TopologyDelta LinkDrain(LinkId link) { return Single(link, ChurnAction::kDrain); }
  static TopologyDelta LinkUndrain(LinkId link) { return Single(link, ChurnAction::kUndrain); }
  static TopologyDelta NodeDown(NodeId node);
  static TopologyDelta NodeUp(NodeId node);

 private:
  static TopologyDelta Single(LinkId link, ChurnAction action) {
    TopologyDelta delta;
    delta.links.push_back(LinkChurn{link, action});
    return delta;
  }
};

class LinkStateOverlay {
 public:
  explicit LinkStateOverlay(const Topology& topo);

  // Effective link transitions of one applied delta. `version` increments once per Apply that
  // changed anything.
  struct Effect {
    std::vector<LinkId> now_dead;  // live -> dead, ascending LinkId
    std::vector<LinkId> now_live;  // dead -> live, ascending LinkId
    uint64_t version = 0;

    bool empty() const { return now_dead.empty() && now_live.empty(); }
  };

  Effect Apply(const TopologyDelta& delta);

  // Live = usable by the probe plane: not down, not drained, both endpoints live.
  bool IsLinkLive(LinkId link) const { return !dead_[static_cast<size_t>(link)]; }
  // Failed = down (itself or an endpoint), not merely drained: forwards nothing, so probes on
  // stale pinglists crossing it are lost. Drained links keep forwarding.
  bool IsLinkFailed(LinkId link) const;
  bool IsNodeLive(NodeId node) const {
    const size_t i = static_cast<size_t>(node);
    return !node_down_[i] && !node_drained_[i];
  }

  const Topology& topology() const { return topo_; }
  uint64_t version() const { return version_; }
  size_t NumDeadLinks() const { return num_dead_; }

  // Monitored links that are currently live, in LinkId order.
  std::vector<LinkId> LiveMonitoredLinks() const;
  // Links currently failing (down-not-drained semantics), for the simulator's loss injection.
  std::vector<LinkId> FailedLinks() const;

 private:
  bool ComputeDead(LinkId link) const;

  const Topology& topo_;
  std::vector<uint8_t> link_down_;
  std::vector<uint8_t> link_drained_;
  std::vector<uint8_t> node_down_;
  std::vector<uint8_t> node_drained_;
  std::vector<uint8_t> dead_;  // cached effective state per link
  size_t num_dead_ = 0;
  uint64_t version_ = 0;
};

}  // namespace detector

#endif  // SRC_TOPO_DELTA_H_
