// Pinglist: the work order a pinger fetches from the controller each cycle (§6.1). Contains the
// source-routed probe entries (route = explicit link list, the simulator's stand-in for the
// IP-in-IP encapsulation towards a chosen core switch) plus ping configuration. Serialized as
// XML exactly like the paper's deployment.
#ifndef SRC_DETECTOR_PINGLIST_H_
#define SRC_DETECTOR_PINGLIST_H_

#include <string>
#include <vector>

#include "src/routing/path_store.h"
#include "src/topo/topology.h"

namespace detector {

struct PinglistEntry {
  // Probe-matrix path this entry measures; kIntraRackPath for server-link probes inside the
  // rack (those are not part of the matrix, §3.1).
  PathId path_id = -1;
  NodeId target_server = kInvalidNode;
  std::vector<LinkId> route;  // full link route pinger -> target, in traversal order

  static constexpr PathId kIntraRackPath = -1;
};

struct Pinglist {
  int version = 1;
  NodeId pinger = kInvalidNode;
  double packets_per_second = 10.0;
  int port_count = 8;
  std::vector<PinglistEntry> entries;

  std::string ToXml() const;
  static Pinglist FromXml(const std::string& xml);
};

}  // namespace detector

#endif  // SRC_DETECTOR_PINGLIST_H_
