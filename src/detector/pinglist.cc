#include "src/detector/pinglist.h"

#include "src/common/xml.h"

namespace detector {
namespace {

// One <probe> element on the wire.
void WriteProbeEntryXml(XmlWriter& w, const PinglistEntry& entry) {
  w.Open("probe");
  w.Attribute("path", static_cast<int64_t>(entry.path_id));
  w.Attribute("target", static_cast<int64_t>(entry.target_server));
  std::string route;
  for (size_t i = 0; i < entry.route.size(); ++i) {
    route += std::to_string(entry.route[i]);
    if (i + 1 < entry.route.size()) {
      route += " ";
    }
  }
  w.Attribute("route", route);
  w.Close();
}

PinglistEntry ProbeEntryFromXml(const XmlNode& node) {
  PinglistEntry entry;
  entry.path_id = static_cast<PathId>(node.AttrInt("path", -1));
  entry.target_server = static_cast<NodeId>(node.AttrInt("target", kInvalidNode));
  const std::string route = node.Attr("route");
  size_t pos = 0;
  while (pos < route.size()) {
    size_t next = route.find(' ', pos);
    if (next == std::string::npos) {
      next = route.size();
    }
    if (next > pos) {
      entry.route.push_back(static_cast<LinkId>(std::stol(route.substr(pos, next - pos))));
    }
    pos = next + 1;
  }
  return entry;
}

}  // namespace

std::string Pinglist::ToXml() const {
  XmlWriter w;
  w.Open("pinglist");
  w.Attribute("version", static_cast<int64_t>(version));
  w.Attribute("pinger", static_cast<int64_t>(pinger));
  w.Attribute("pps", packets_per_second);
  w.Attribute("ports", static_cast<int64_t>(port_count));
  for (const PinglistEntry& entry : entries) {
    WriteProbeEntryXml(w, entry);
  }
  w.Close();
  return w.TakeString();
}

Pinglist Pinglist::FromXml(const std::string& xml) {
  const std::unique_ptr<XmlNode> root = ParseXml(xml);
  CHECK(root->name == "pinglist") << "unexpected root element " << root->name;
  Pinglist list;
  list.version = static_cast<int>(root->AttrInt("version", 1));
  list.pinger = static_cast<NodeId>(root->AttrInt("pinger", kInvalidNode));
  list.packets_per_second = root->AttrDouble("pps", 10.0);
  list.port_count = static_cast<int>(root->AttrInt("ports", 8));
  for (const XmlNode* probe : root->Children("probe")) {
    list.entries.push_back(ProbeEntryFromXml(*probe));
  }
  return list;
}

}  // namespace detector
