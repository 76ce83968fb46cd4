// A network switch: ports with VLAN assignments.
//
// Océano isolates customer domains with private VLANs enforced by switches
// (paper §1, §3.1); GulfStream Central moves nodes between domains by
// rewriting a port's VLAN through the switch console. A whole-switch
// failure takes every attached adapter off the network at once — the event
// GSC's correlation function must recognize (§3).
#pragma once

#include <optional>
#include <vector>

#include "util/check.h"
#include "util/ids.h"

namespace gs::net {

class Fabric;

class Switch {
 public:
  Switch(util::SwitchId id, std::size_t port_count)
      : id_(id), ports_(port_count) {}

  [[nodiscard]] util::SwitchId id() const { return id_; }
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }

  [[nodiscard]] bool failed() const { return failed_; }

  [[nodiscard]] util::VlanId port_vlan(util::PortId port) const {
    return port_ref(port).vlan;
  }
  [[nodiscard]] util::AdapterId port_adapter(util::PortId port) const {
    return port_ref(port).adapter;
  }

  // All adapters currently wired to this switch (regardless of VLAN).
  [[nodiscard]] std::vector<util::AdapterId> wired_adapters() const {
    std::vector<util::AdapterId> out;
    for (const Port& p : ports_)
      if (p.adapter.valid()) out.push_back(p.adapter);
    return out;
  }

  [[nodiscard]] std::optional<util::PortId> free_port() const {
    for (std::size_t i = 0; i < ports_.size(); ++i)
      if (!ports_[i].adapter.valid())
        return util::PortId(static_cast<std::uint32_t>(i));
    return std::nullopt;
  }

 private:
  // Wiring and liveness change only through Fabric, which keeps its VLAN
  // index and unicast resolution tables in step with every change.
  friend class Fabric;
  void set_failed(bool failed) { failed_ = failed; }

  void connect(util::PortId port, util::AdapterId adapter, util::VlanId vlan) {
    Port& p = port_ref(port);
    GS_CHECK_MSG(!p.adapter.valid(), "port already wired");
    p.adapter = adapter;
    p.vlan = vlan;
  }

  void set_port_vlan(util::PortId port, util::VlanId vlan) {
    port_ref(port).vlan = vlan;
  }

  struct Port {
    util::AdapterId adapter;
    util::VlanId vlan;
  };

  Port& port_ref(util::PortId port) {
    GS_CHECK(port.valid() && port.value() < ports_.size());
    return ports_[port.value()];
  }
  const Port& port_ref(util::PortId port) const {
    GS_CHECK(port.valid() && port.value() < ports_.size());
    return ports_[port.value()];
  }

  util::SwitchId id_;
  bool failed_ = false;
  std::vector<Port> ports_;
};

}  // namespace gs::net
