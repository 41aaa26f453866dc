#include "sim/station.hpp"

#include <cassert>

#include "obs/metrics.hpp"
#include "phy/airtime.hpp"
#include "rate/policy_registry.hpp"

namespace wlan::sim {

namespace {
// The seed of a station built outside a Network with none set.
constexpr std::uint64_t kStandaloneSeed = 1;
}  // namespace

Station::Station(Channel& channel, mac::Addr address, const StationConfig& config)
    : channel_(channel), addr_(address), config_(config),
      rng_(config.seed.value_or(kStandaloneSeed) ^ (0x5741ULL * address)),
      backoff_(channel.timing(), rng_) {
  channel_.add_node(this);
}

rate::RateController& Station::controller_for(mac::Addr peer_addr) {
  // Broadcasts bypass rate adaptation, and kBroadcast is the controller
  // index's reserved empty key.
  assert(peer_addr != mac::kBroadcast);
  // The per-link stream seed feeds randomized policies (MinstrelLite's
  // probe gaps); it is a pure function of (station seed, peer address), so
  // controllers re-created after forget_peer resume an identical schedule.
  if (rate::RateController** it = controller_index_.find(peer_addr)) {
    return **it;
  }
  controllers_.push_back(rate::PolicyRegistry::instance().make(
      config_.rate,
      util::mix_seed(config_.seed.value_or(kStandaloneSeed), peer_addr)));
  controller_index_.insert_or_assign(peer_addr, controllers_.back().get());
  obs::count(obs::Id::kRateControllersCreated);
  return *controllers_.back();
}

Station::~Station() = default;

void Station::forget_peer(mac::Addr peer) {
  // Keep the controller while any queued packet still targets the peer: its
  // retries must continue from the adapted state, not restart from scratch
  // (departures racing queued downlink are common, and forgetting mid-drain
  // would perturb the frozen static-scenario trajectories).
  for (const Packet& p : queue_) {
    if (p.dst == peer) return;
  }
  rate::RateController** it = controller_index_.find(peer);
  if (it == nullptr) return;
  rate::RateController* gone = *it;
  controller_index_.erase(peer);
  for (auto c = controllers_.begin(); c != controllers_.end(); ++c) {
    if (c->get() == gone) {
      controllers_.erase(c);
      break;
    }
  }
}

void Station::purge_peer(mac::Addr peer) {
  // Everything behind the head is fair game; the head (whenever the queue
  // is non-empty the state machine owns it) finishes on its own.  Collect
  // completion callbacks first: invoking them mid-iteration could re-enter
  // enqueue() and invalidate the traversal.
  std::vector<std::function<void(bool)>> failed;
  if (!queue_.empty()) {
    for (auto p = queue_.begin() + 1; p != queue_.end();) {
      if (p->dst == peer) {
        if (p->on_complete) failed.push_back(std::move(p->on_complete));
        p = queue_.erase(p);
      } else {
        ++p;
      }
    }
  }
  if (!queue_.empty() && queue_.front().dst == peer) {
    // Head is mid-exchange toward the peer, so forget_peer below would
    // refuse and nothing would ever retry — leaking the controller.  The
    // head drains within the retry limit (no new packets for a
    // deregistered client enqueue, and its recycled address rests at the
    // back of the FIFO pool far longer than this), so one deferred
    // re-purge finishes the job.
    channel_.simulator().in(Microseconds{50'000},
                            [this, peer] { purge_peer(peer); });
  }
  forget_peer(peer);
  for (auto& fn : failed) fn(false);
}

void Station::enqueue(Packet packet) {
  if (!active_) {
    if (packet.on_complete) packet.on_complete(false);
    return;
  }
  if (queue_.size() >= config_.queue_limit) {
    ++stats_.queue_drops;
    if (packet.on_complete) packet.on_complete(false);
    return;
  }
  packet.enqueued = channel_.simulator().now();
  queue_.push_back(std::move(packet));
  ++stats_.enqueued;
  if (state_ == State::kIdle) start_contention();
}

void Station::shutdown() {
  if (!active_) return;
  active_ = false;
  // Nothing arms a timer once active_ is false: the on_air_done closures,
  // on_receive and the SIFS callbacks all return first.  So one cancel of
  // each is final, and a second shutdown has nothing to do.
  channel_.simulator().cancel(response_timer_);
  channel_.simulator().cancel(sifs_timer_);
  if (state_ == State::kContending) channel_.cancel_access(this);
  // Flush the queue, failing any completion-clocked flows.
  std::deque<Packet> drained;
  drained.swap(queue_);
  state_ = State::kIdle;
  for (Packet& p : drained) {
    if (p.on_complete) p.on_complete(false);
  }
}

void Station::start_contention() {
  assert(!queue_.empty());
  if (!head_in_service_) {
    // First contention for this head: the queueing-delay phase ends here,
    // the head-of-line (service) phase begins.
    head_in_service_ = true;
    head_service_start_ = channel_.simulator().now();
  }
  state_ = State::kContending;
  backoff_.draw();
  channel_.request_access(this, backoff_.slots_remaining());
}

void Station::access_granted() {
  if (!active_ || queue_.empty()) {
    state_ = State::kIdle;
    return;
  }
  transmit_head();
}

std::optional<double> Station::snr_hint(mac::Addr peer_addr) const {
  const MacEntity* p = channel_.peer(peer_addr);
  if (!p) return std::nullopt;
  return channel_.link_snr_db(*this, *p) + config_.tx_power_offset_db;
}

void Station::transmit_head() {
  Packet& head = queue_.front();

  if (head.dst == mac::kBroadcast) {
    // Beacon/broadcast: no ACK, complete at end of air time.  Beacons
    // consume the radio's sequence counter like data (real MACs share one
    // 12-bit counter), giving every beacon the unique (bssid, seq) identity
    // the multi-sniffer clock alignment anchors on.
    next_seq_ = static_cast<std::uint16_t>(next_seq_ + 1);
    mac::Frame f = mac::make_beacon(head.bssid != mac::kNoAddr ? head.bssid : addr_,
                                    channel_.number(), next_seq_);
    channel_.transmit(this, f, [this] { finish_head(true); });
    return;
  }

  if (head.type == mac::FrameType::kData) {
    // Plan a retry chain once per head frame; walk it across retries and
    // re-plan only when it is exhausted.  The legacy policies emit
    // single-attempt plans, so they re-decide before every retry exactly
    // as the pre-chain MAC did.
    rate::RateController& rc = controller_for(head.dst);
    if (plan_attempt_ >= plan_.total_attempts()) {
      const Microseconds now = channel_.simulator().now();
      rc.on_tick(now);
      rate::TxContext ctx;
      ctx.snr_db = snr_hint(head.dst);
      ctx.payload_bytes = head.payload;
      ctx.now = now;
      ctx.retry_limit = channel_.timing().short_retry_limit;
      plan_ = rc.plan(ctx);
      plan_attempt_ = 0;
      channel_.note_rate_plan();
    }
    current_rate_ = plan_.rate_for_attempt(plan_attempt_);
  } else {
    current_rate_ = phy::Rate::kR1;  // management at the basic rate
  }

  const bool with_rts = config_.use_rtscts &&
                        head.type == mac::FrameType::kData &&
                        head.payload >= config_.rts_threshold;
  if (with_rts) {
    mac::Frame rts = mac::make_rts(addr_, head.dst, head.bssid,
                                   channel_.number());
    ++stats_.rts_sent;
    state_ = State::kWaitCts;
    channel_.transmit(this, rts, [this] {
      if (!active_) return;  // shut down while the RTS was on the air
      response_timer_ = channel_.simulator().in(
          channel_.timing().cts_timeout(), [this] { on_cts_timeout(); });
    });
    return;
  }
  send_data_frame();
}

void Station::send_data_frame() {
  Packet& head = queue_.front();
  // First attempt of this PDU assigns its sequence number; retries reuse it.
  if (attempt_ == 0) next_seq_ = static_cast<std::uint16_t>(next_seq_ + 1);

  // Fragmentation: carve the next fragment out of the remaining payload.
  fragment_bytes_ = head.payload;
  if (config_.frag_threshold > 0 && head.type == mac::FrameType::kData &&
      head.payload > config_.frag_threshold) {
    fragment_bytes_ =
        std::min(config_.frag_threshold, head.payload - frag_sent_);
  }

  mac::Frame f = mac::make_data(addr_, head.dst, head.bssid, next_seq_,
                                fragment_bytes_, current_rate_,
                                channel_.number());
  f.type = head.type;  // data or management payload (assoc/disassoc)
  f.retry = attempt_ > 0;
  if (head.type == mac::FrameType::kData) ++stats_.tx_attempts;

  state_ = State::kWaitAck;
  channel_.transmit(this, f, [this] {
    if (!active_) return;  // shut down while the frame was on the air
    response_timer_ = channel_.simulator().in(channel_.timing().ack_timeout(),
                                              [this] { on_ack_timeout(); });
  });
}

void Station::on_receive(const mac::Frame& f, double snr_db) {
  if (!active_) return;
  const bool for_me = f.dst == addr_ || owns_addr(f.dst);

  switch (f.type) {
    case mac::FrameType::kCts:
      if (for_me && state_ == State::kWaitCts) {
        channel_.simulator().cancel(response_timer_);
        sifs_timer_ = channel_.simulator().in(channel_.timing().sifs, [this] {
          if (active_ && !queue_.empty()) send_data_frame();
        });
      }
      return;

    case mac::FrameType::kAck:
      if (for_me && state_ == State::kWaitAck) {
        channel_.simulator().cancel(response_timer_);
        if (!queue_.empty()) report_tx_outcome(true);
        backoff_.reset();
        // Fragment burst: more payload pending means the next fragment
        // follows after SIFS, keeping the exchange atomic.
        if (!queue_.empty() && config_.frag_threshold > 0 &&
            queue_.front().type == mac::FrameType::kData &&
            queue_.front().payload > config_.frag_threshold) {
          frag_sent_ += fragment_bytes_;
          if (frag_sent_ < queue_.front().payload) {
            attempt_ = 0;
            sifs_timer_ = channel_.simulator().in(
                channel_.timing().sifs, [this] {
                  if (active_ && !queue_.empty()) send_data_frame();
                });
            return;
          }
        }
        finish_head(true);
      }
      return;

    case mac::FrameType::kRts:
      if (for_me) {
        // CTS response after SIFS.
        const mac::Frame cts = mac::make_cts(f.dst, f.src, channel_.number());
        channel_.simulator().in(channel_.timing().sifs,
                                [this, cts] { channel_.transmit(this, cts); });
      }
      return;

    case mac::FrameType::kBeacon:
      return;  // stations do not act on beacons in this model

    default:
      break;
  }

  // Data / management payloads addressed to us: ACK after SIFS, then hand to
  // the payload hook.  The ACK is sent from the address the frame targeted
  // (a virtual-AP BSSID when we are an AP).
  if (for_me && f.dst != mac::kBroadcast) {
    const mac::Frame ack = mac::make_ack(f.dst, f.src, channel_.number());
    channel_.simulator().in(channel_.timing().sifs,
                            [this, ack] { channel_.transmit(this, ack); });
    on_payload(f, snr_db);
  }
}

void Station::on_payload(const mac::Frame& f, double) {
  if (payload_handler_) payload_handler_(f);
}

void Station::on_cts_timeout() {
  if (!active_ || state_ != State::kWaitCts) return;
  attempt_failed();
}

void Station::on_ack_timeout() {
  if (!active_ || state_ != State::kWaitAck) return;
  ++stats_.ack_timeouts;
  attempt_failed();
}

void Station::report_tx_outcome(bool success) {
  const Packet& head = queue_.front();
  if (head.dst == mac::kBroadcast) return;  // broadcasts are never planned
  rate::TxFeedback fb;
  fb.rate = current_rate_;
  fb.attempt = attempt_;
  fb.success = success;
  fb.payload_bytes = head.payload;
  fb.airtime = phy::data_airtime(head.payload, current_rate_);
  fb.now = channel_.simulator().now();
  controller_for(head.dst).on_tx_outcome(fb);
  channel_.note_rate_outcome();
}

void Station::attempt_failed() {
  if (!queue_.empty()) {
    report_tx_outcome(false);
    // The failed attempt consumed one slot of the planned retry chain.
    ++plan_attempt_;
  }
  ++attempt_;
  const auto limit = channel_.timing().short_retry_limit;
  if (attempt_ > limit) {
    ++stats_.retry_drops;
    backoff_.reset();
    finish_head(false);
    return;
  }
  backoff_.grow();
  start_contention();
}

void Station::finish_head(bool delivered) {
  if (queue_.empty()) {  // defensive: shutdown raced with completion
    state_ = State::kIdle;
    return;
  }
  const Packet& head = queue_.front();
  if (delivered && head.type == mac::FrameType::kData &&
      head.dst != mac::kBroadcast && head_in_service_) {
    // Delay components of a delivered MSDU (paper §6): time spent queued
    // behind other heads vs time at the head of the line (contention,
    // retries, fragment burst).
    const Microseconds now = channel_.simulator().now();
    channel_.record_data_delay(head_service_start_ - head.enqueued,
                               now - head_service_start_);
  }
  head_in_service_ = false;
  const auto on_complete = std::move(queue_.front().on_complete);
  queue_.pop_front();
  attempt_ = 0;
  frag_sent_ = 0;
  plan_ = {};
  plan_attempt_ = 0;
  if (delivered) ++stats_.delivered;
  if (!queue_.empty()) {
    start_contention();
  } else {
    state_ = State::kIdle;
  }
  if (on_complete) on_complete(delivered);
}

}  // namespace wlan::sim
