#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/counters.hpp"
#include "obs/timer.hpp"
#include "base/assert.hpp"
#include "sim/logging.hpp"

namespace platoon::net {

namespace {
double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }
double mw_to_dbm(double mw) { return 10.0 * std::log10(std::max(mw, 1e-15)); }

bool brute_force_env() {
    const char* v = std::getenv("PLATOON_BRUTE_FORCE_NET");
    return v != nullptr && v[0] == '1';
}

obs::Counter g_sent{"net.sent"};
obs::Counter g_sent_forged{"net.sent_forged"};
obs::Counter g_delivered{"net.delivered"};
obs::Counter g_dropped_per{"net.dropped.per"};
obs::Counter g_dropped_mac{"net.dropped.mac"};
obs::Counter g_dropped_half_duplex{"net.dropped.half_duplex"};
obs::Counter g_dropped_range{"net.dropped.range"};
obs::Counter g_dropped_fault{"net.dropped.fault"};
obs::Counter g_arena_alloc{"net.arena.alloc"};
obs::Counter g_arena_reuse{"net.arena.reuse"};
}  // namespace

Network::Network(sim::Scheduler& scheduler, Params params, std::uint64_t seed)
    : scheduler_(scheduler),
      params_(params),
      channel_(params.channel, seed),
      rng_(seed, "network.mac"),
      brute_force_(params.brute_force_delivery || brute_force_env()) {}

void Network::register_node(sim::NodeId id, PositionFn position,
                            ReceiveHandler on_receive) {
    register_node(id, std::move(position), std::move(on_receive),
                  NodeTraits{});
}

void Network::register_node(sim::NodeId id, PositionFn position,
                            ReceiveHandler on_receive, NodeTraits traits) {
    PLATOON_EXPECTS(id.valid());
    PLATOON_EXPECTS(position != nullptr);
    PLATOON_EXPECTS(on_receive != nullptr);
    nodes_[id] = Node{std::move(position), std::move(on_receive), traits,
                      false};
    index_dirty_ = true;
}

void Network::unregister_node(sim::NodeId id) {
    nodes_.erase(id);
    index_dirty_ = true;
}

bool Network::is_registered(sim::NodeId id) const {
    return nodes_.contains(id);
}

double Network::node_position(sim::NodeId id) const {
    const auto it = nodes_.find(id);
    PLATOON_EXPECTS(it != nodes_.end());
    return it->second.position();
}

void Network::ensure_index() {
    const sim::SimTime now = scheduler_.now();
    if (!index_dirty_ && index_.ever_built() &&
        now - index_.built_at() <= params_.spatial_rebuild_period_s) {
        return;
    }
    std::vector<SpatialIndex::Entry> entries;
    entries.reserve(nodes_.size());
    for (const auto& [id, node] : nodes_) {
        entries.push_back({node.position(), id, node.traits.vlc});
    }
    index_.rebuild(std::move(entries), now);
    index_dirty_ = false;
}

double Network::index_slack(sim::SimTime now) const {
    return params_.max_node_speed_mps * (now - index_.built_at()) +
           params_.spatial_slack_margin_m;
}

int Network::add_jammer(JammerConfig config) {
    const int id = next_jammer_id_++;
    jammers_[id] = std::move(config);
    return id;
}

void Network::remove_jammer(int jammer_id) { jammers_.erase(jammer_id); }

double Network::jammer_power_mw(double rx_pos, Band band, sim::NodeId rx,
                                sim::SimTime t) {
    double total = 0.0;
    for (auto& [id, jammer] : jammers_) {
        if (jammer.band != band) continue;
        const double jam_pos =
            jammer.mobile && jammer.position_fn ? jammer.position_fn()
                                                : jammer.position_m;
        const double dist = std::abs(jam_pos - rx_pos);
        // Jammer noise experiences the same propagation; use a synthetic
        // node id far outside the normal range for its fading process.
        const sim::NodeId jam_node{0xFFFF0000u + static_cast<std::uint32_t>(id)};
        const double rx_dbm =
            channel_.rx_power_dbm(jam_node, rx, dist, t, jammer.power_dbm);
        total += dbm_to_mw(rx_dbm) * jammer.duty_cycle;
    }
    return total;
}

bool Network::medium_busy(sim::NodeId at, Band band) {
    if (band != Band::kDsrc) return false;  // VLC/C-V2X: no CSMA
    const auto it = nodes_.find(at);
    if (it == nodes_.end()) return false;
    const double my_pos = it->second.position();
    const sim::SimTime now = scheduler_.now();

    for (const std::uint32_t slot : active_slots_) {
        const Transmission& tx = slab_[slot]->tx;
        if (tx.frame.band != band || tx.end <= now || tx.from == at) continue;
        const double dist = std::abs(tx.tx_position - my_pos);
        const double rx_dbm = channel_.rx_power_dbm(
            tx.from, at, dist, now, params_.channel.tx_power_dbm);
        if (rx_dbm > params_.channel.carrier_sense_dbm) return true;
    }
    const double jam_mw = jammer_power_mw(my_pos, band, at, now);
    return mw_to_dbm(jam_mw) > params_.channel.carrier_sense_dbm;
}

void Network::broadcast(sim::NodeId from, Frame frame) {
    PLATOON_EXPECTS(nodes_.contains(from));
    // Observability only: the oracle label is counted (one bump per forged
    // submission), never branched on for delivery.
    if (frame.truth.malicious()) g_sent_forged.inc();
    if (frame.band == Band::kVlc) {
        ++stats_.sent;
        g_sent.inc();
        deliver_vlc(from, frame);
        return;
    }
    attempt_transmit(from, std::move(frame), 0);
}

void Network::attempt_transmit(sim::NodeId from, Frame frame, int attempt) {
    if (!nodes_.contains(from)) return;  // node left while backing off
    if (attempt > params_.max_mac_attempts) {
        ++stats_.dropped_mac;
        g_dropped_mac.inc();
        return;
    }
    // Half-duplex: one outgoing frame at a time, on any band -- a second
    // send while transmitting waits for a backoff slot like a busy medium.
    const auto self_it = nodes_.find(from);
    const bool self_busy = self_it->second.transmitting;
    if (self_busy || (frame.band == Band::kDsrc && medium_busy(from, frame.band))) {
        const int cw = contention_window(attempt);
        const double backoff =
            params_.aifs_s +
            params_.slot_time_s *
                static_cast<double>(rng_.uniform_int(static_cast<std::uint64_t>(cw)));
        scheduler_.schedule_in(backoff, [this, from, frame = std::move(frame),
                                         attempt]() mutable {
            attempt_transmit(from, std::move(frame), attempt + 1);
        });
        return;
    }
    start_transmission(from, std::move(frame));
}

void Network::prune_finished(sim::SimTime now) {
    std::erase_if(active_slots_, [this, now](std::uint32_t slot) {
        Slot& s = *slab_[slot];
        if (s.tx.end >= now - 0.001) return false;
        s.live = false;
        free_slots_.push_back(slot);
        return true;
    });
}

std::uint32_t Network::allocate_slot() {
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.push_back(std::make_unique<Slot>());
        g_arena_alloc.inc();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        g_arena_reuse.inc();
    }
    Slot& s = *slab_[slot];
    ++s.gen;
    s.live = true;
    active_slots_.push_back(slot);
    return slot;
}

void Network::start_transmission(sim::NodeId from, Frame frame) {
    auto node_it = nodes_.find(from);
    if (node_it == nodes_.end()) return;
    const sim::SimTime now = scheduler_.now();
    prune_finished(now);

    const std::uint32_t slot = allocate_slot();
    Slot& s = *slab_[slot];
    s.tx.from = from;
    s.tx.start = now;
    s.tx.end = now + channel_.airtime(frame.wire_size());
    s.tx.tx_position = node_it->second.position();
    s.tx.frame = std::move(frame);
    node_it->second.transmitting = true;
    ++stats_.sent;
    g_sent.inc();

    scheduler_.schedule_at(s.tx.end, [this, slot, gen = s.gen] {
        finish_transmission(slot, gen);
    });
}

void Network::finish_transmission(std::uint32_t slot, std::uint64_t gen) {
    PLATOON_EXPECTS(slot < slab_.size());
    if (!slab_[slot]->live || slab_[slot]->gen != gen) return;
    const obs::ScopedTimer timer("net.deliver");
    // Slab slots are heap-stable: handlers may start new transmissions
    // while this reference is held, and this slot cannot be pruned before
    // the loop ends (its end time is `now`, inside the prune window).
    const Transmission& tx = slab_[slot]->tx;

    if (auto it = nodes_.find(tx.from); it != nodes_.end())
        it->second.transmitting = false;

    const sim::SimTime now = scheduler_.now();
    const double noise_mw = dbm_to_mw(params_.channel.noise_floor_dbm);

    // Reception candidates, sorted by NodeId (deterministic order; handlers
    // can (un)register nodes, so the set is snapshotted before delivery).
    std::vector<sim::NodeId> receivers;
    if (brute_force_) {
        receivers.reserve(nodes_.size());
        for (const auto& [id, node] : nodes_) {
            if (id != tx.from) receivers.push_back(id);
        }
    } else {
        ensure_index();
        const double reach = params_.max_range_m + index_slack(now);
        std::vector<SpatialIndex::Entry> window;
        index_.collect(tx.tx_position - reach, tx.tx_position + reach,
                       window);
        receivers.reserve(window.size());
        for (const SpatialIndex::Entry& e : window) {
            if (e.id != tx.from) receivers.push_back(e.id);
        }
        // Everyone outside the slack-widened window is guaranteed outside
        // max_range_m at its exact position too (spatial_index.hpp), so the
        // far tail is bulk-counted without sampling positions.
        const std::size_t total_receivers =
            nodes_.size() - (nodes_.contains(tx.from) ? 1u : 0u);
        const std::uint64_t far = total_receivers - receivers.size();
        stats_.dropped_range += far;
        g_dropped_range.add(far);
    }
    std::sort(receivers.begin(), receivers.end());

    for (const sim::NodeId rx : receivers) {
        const auto it = nodes_.find(rx);
        if (it == nodes_.end()) continue;
        const double rx_pos = it->second.position();
        const double dist = std::abs(tx.tx_position - rx_pos);
        if (dist > params_.max_range_m) {
            ++stats_.dropped_range;
            g_dropped_range.inc();
            continue;
        }
        if (it->second.transmitting) {
            ++stats_.dropped_half_duplex;
            g_dropped_half_duplex.inc();
            continue;
        }
        // Benign fault process (burst loss): a faulted delivery is decided
        // before the SINR/PER draw -- the frame never reaches the decoder,
        // so it must not be double-counted as a PER loss.
        if (fault_loss_ && fault_loss_(tx.from, rx, tx.frame.band, now)) {
            ++stats_.dropped_fault;
            g_dropped_fault.inc();
            continue;
        }
        const double signal_mw = dbm_to_mw(channel_.rx_power_dbm(
            tx.from, rx, dist, tx.start, params_.channel.tx_power_dbm));
        const double interference =
            interference_mw(rx, rx_pos, tx.frame.band, tx.start, tx.end,
                            slot) +
            jammer_power_mw(rx_pos, tx.frame.band, rx, now);
        const double sinr_db =
            mw_to_dbm(signal_mw) - mw_to_dbm(noise_mw + interference);
        const double per =
            channel_.packet_error_rate(sinr_db, tx.frame.wire_size());
        if (rng_.chance(per)) {
            ++stats_.dropped_per;
            g_dropped_per.inc();
            continue;
        }
        ++stats_.delivered;
        g_delivered.inc();
        RxInfo info{sinr_db, tx.frame.band, now, tx.from};
        it->second.on_receive(tx.frame, info);
    }
}

double Network::interference_mw(sim::NodeId rx, double rx_pos, Band band,
                                sim::SimTime start, sim::SimTime end,
                                std::optional<std::uint32_t> self_slot) {
    double total = 0.0;
    for (const std::uint32_t slot : active_slots_) {
        if (self_slot && slot == *self_slot) continue;
        const Transmission& other = slab_[slot]->tx;
        if (other.frame.band != band) continue;
        if (other.from == rx) continue;  // own tx counted as half-duplex
        const double overlap =
            std::min(end, other.end) - std::max(start, other.start);
        if (overlap <= 0.0) continue;
        const double dist = std::abs(other.tx_position - rx_pos);
        const double rx_dbm = channel_.rx_power_dbm(
            other.from, rx, dist, other.start, params_.channel.tx_power_dbm);
        total += dbm_to_mw(rx_dbm);
    }
    return total;
}

std::pair<sim::NodeId, sim::NodeId> Network::vlc_targets(sim::NodeId from) {
    const auto from_it = nodes_.find(from);
    if (from_it == nodes_.end()) return {};
    const double my_pos = from_it->second.position();

    // Candidates as (id, exact position), gathered either from the whole
    // registry or from the index window, then scanned in NodeId order so an
    // exact-distance tie resolves identically on both paths. The window is
    // widened past the strict-< reach (vlc_range_m + 1.0) by the slack, so
    // any node that could win the nearest-neighbor scan is inside it.
    std::vector<std::pair<sim::NodeId, double>> cands;
    if (brute_force_) {
        for (const auto& [id, node] : nodes_) {
            if (id == from || !node.traits.vlc) continue;
            cands.emplace_back(id, node.position());
        }
    } else {
        ensure_index();
        const double reach =
            params_.vlc_range_m + 1.0 + index_slack(scheduler_.now());
        std::vector<SpatialIndex::Entry> window;
        index_.collect_vlc(my_pos - reach, my_pos + reach, window);
        cands.reserve(window.size());
        for (const SpatialIndex::Entry& e : window) {
            if (e.id == from) continue;
            const auto it = nodes_.find(e.id);
            if (it == nodes_.end()) continue;
            cands.emplace_back(e.id, it->second.position());
        }
    }
    std::sort(cands.begin(), cands.end());

    sim::NodeId ahead, behind;
    double best_ahead = params_.vlc_range_m + 1.0;
    double best_behind = params_.vlc_range_m + 1.0;
    for (const auto& [id, pos] : cands) {
        const double delta = pos - my_pos;
        if (delta > 0.0 && delta < best_ahead) {
            best_ahead = delta;
            ahead = id;
        } else if (delta < 0.0 && -delta < best_behind) {
            best_behind = -delta;
            behind = id;
        }
    }
    return {ahead, behind};
}

void Network::deliver_vlc(sim::NodeId from, const Frame& frame) {
    // Line-of-sight optical link: reaches only the nearest vehicle ahead and
    // the nearest behind (the bodies of vehicles block anything further),
    // within the optical range. Immune to RF jamming by construction; an
    // ambient-light loss probability models glare (paper Section VI-A.4).
    const auto [ahead, behind] = vlc_targets(from);

    for (const sim::NodeId rx : {ahead, behind}) {
        if (!rx.valid()) continue;
        if (rng_.chance(params_.vlc_loss_prob)) {
            ++stats_.dropped_per;
            g_dropped_per.inc();
            continue;
        }
        scheduler_.schedule_in(
            params_.vlc_latency_s, [this, rx, frame, from] {
                const auto it = nodes_.find(rx);
                if (it == nodes_.end()) return;
                ++stats_.delivered;
                g_delivered.inc();
                RxInfo info{40.0, Band::kVlc, scheduler_.now(), from};
                it->second.on_receive(frame, info);
            });
    }
}

}  // namespace platoon::net
