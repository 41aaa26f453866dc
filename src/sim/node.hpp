// Interface between the channel (medium + DCF arbitration) and MAC entities
// (client stations and access points).
#pragma once

#include "mac/frame.hpp"
#include "phy/link_cache.hpp"
#include "phy/propagation.hpp"

namespace wlan::sim {

class MacEntity {
 public:
  virtual ~MacEntity() = default;

  /// Compact id into the owning channel's link-budget cache; assigned by
  /// Channel::add_node.  kNoLink until the node joins a channel.
  [[nodiscard]] phy::LinkBudgetCache::LinkId link_id() const {
    return link_id_;
  }

  /// The channel grants this node a transmit opportunity (its backoff
  /// expired on an idle medium).  The node must either call
  /// Channel::transmit() in this callback or re-request access later.
  virtual void access_granted() = 0;

  /// A frame addressed to this node (or broadcast) was decoded successfully.
  virtual void on_receive(const mac::Frame& frame, double snr_db) = 0;

  [[nodiscard]] virtual phy::Position position() const = 0;
  [[nodiscard]] virtual mac::Addr addr() const = 0;

  /// Transmit power delta against the propagation model's default, in dB.
  /// The paper's §7 suggests clients "dynamically change the transmit
  /// power such that data frames are consistently transmitted at high data
  /// rates"; stations implementing that raise this value.
  [[nodiscard]] virtual double tx_power_offset_db() const = 0;

  /// Carrier-sense domain bits.  A node contends in the domain keyed by its
  /// exact mask and defers to any transmission whose sender's mask
  /// intersects it; transmissions from disjoint-mask senders are invisible
  /// to its carrier sense (hidden terminals) though they still interfere at
  /// the receiver via SINR.  Every node on bit 0 (StationConfig's default)
  /// is the paper's single collision domain.
  [[nodiscard]] virtual std::uint32_t sense_mask() const = 0;

 private:
  friend class Channel;
  phy::LinkBudgetCache::LinkId link_id_ = phy::LinkBudgetCache::kNoLink;
};

}  // namespace wlan::sim
