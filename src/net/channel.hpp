// Radio propagation: log-distance path loss plus a reciprocal,
// time-correlated small-scale fading process.
//
// Reciprocity matters twice in this codebase: it is what makes the
// fading-based key agreement of [5]/[9] work (both ends of a link observe
// the same gain, an eavesdropper elsewhere observes an independent one), and
// it keeps the SINR model symmetric. Temporal correlation is modelled as an
// AR(1) (Gauss-Markov) process in dB per unordered node pair, parameterised
// by a coherence time.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "base/types.hpp"

namespace platoon::net {

enum class Band : std::uint8_t {
    kDsrc = 0,  ///< IEEE 802.11p at 5.9 GHz.
    kVlc,       ///< Visible light, line-of-sight to adjacent vehicle.
    kCv2x,      ///< 3GPP C-V2X sidelink (separate RF resource).
};

[[nodiscard]] const char* to_string(Band band);

struct ChannelParams {
    double tx_power_dbm = 20.0;
    double ref_loss_db = 47.86;      ///< Free-space loss at 1 m, 5.9 GHz.
    double path_loss_exponent = 2.2;
    double noise_floor_dbm = -95.0;
    double fading_stddev_db = 4.0;   ///< Small-scale fading sigma (dB).
    double coherence_time_s = 0.05;  ///< Fading decorrelation time.
    double carrier_sense_dbm = -85.0;
    double capture_threshold_db = 6.0;  ///< SINR for near-certain reception.
    double per_slope_db = 1.5;          ///< PER sigmoid slope.
    double data_rate_bps = 6'000'000.0;
    double preamble_s = 40e-6;
};

class Channel {
public:
    Channel(ChannelParams params, std::uint64_t master_seed);

    [[nodiscard]] const ChannelParams& params() const { return params_; }

    /// Deterministic path loss (dB) over `distance_m`.
    [[nodiscard]] double path_loss_db(double distance_m) const;

    /// Instantaneous channel gain (dB, negative) between nodes `a` and `b`
    /// at time `t`, including fading. Symmetric in (a, b): gain(a,b,t) ==
    /// gain(b,a,t) exactly (reciprocity).
    double gain_db(sim::NodeId a, sim::NodeId b, double distance_m,
                   sim::SimTime t);

    /// Received power (dBm) for a transmission at `tx_power_dbm`.
    double rx_power_dbm(sim::NodeId from, sim::NodeId to, double distance_m,
                        sim::SimTime t, double tx_power_dbm);

    /// Airtime of a frame of `bytes` at the configured data rate.
    [[nodiscard]] sim::SimTime airtime(std::size_t bytes) const;

    /// Packet-error rate given SINR: sigmoid centred on the capture
    /// threshold, steeper for short frames.
    [[nodiscard]] double packet_error_rate(double sinr_db,
                                           std::size_t bytes) const;

    /// The raw fading value (dB) of the pair process — exposed so the
    /// fading key agreement can probe the same reciprocal randomness the
    /// packets experience.
    double fading_db(sim::NodeId a, sim::NodeId b, sim::SimTime t);

    /// Canonical unordered-pair identity for the per-link fading process.
    /// Both node id words are kept in full: packing them as (hi << 32) | lo
    /// would silently collide for id values >= 2^32 (e.g. if the jammer
    /// pseudo-node range ever widens), merging independent fading processes.
    struct PairKey {
        std::uint64_t lo = 0;  ///< min(a, b), full width.
        std::uint64_t hi = 0;  ///< max(a, b), full width.
        friend bool operator==(PairKey, PairKey) = default;
    };
    struct PairKeyHash {
        std::size_t operator()(PairKey k) const {
            // Mix both full words (boost::hash_combine flavour).
            std::uint64_t h = k.lo * 0x9E3779B97F4A7C15ull;
            h ^= k.hi + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
            return static_cast<std::size_t>(h);
        }
    };

    /// Order-insensitive: pair_key(a, b) == pair_key(b, a) (reciprocity).
    [[nodiscard]] static PairKey pair_key(sim::NodeId a, sim::NodeId b);

private:
    /// Open-addressing fading table. The AR(1) state is touched once per
    /// rx_power/gain computation, which makes this the hottest lookup in
    /// the simulator at highway scale (hundreds of thousands of live node
    /// pairs): linear probing over one contiguous power-of-two slot array
    /// replaces the bucket-chain pointer chase of unordered_map with a
    /// probe that almost always resolves within one cache line. Same
    /// states, same draw order -- only the container changed.
    ///
    /// Keys and values live in parallel arrays so the probe loop walks a
    /// dense u64 array (8 bytes per slot, three slots per cache line)
    /// instead of dragging the 16-byte AR(1) state through the cache on
    /// every collision; the state array is touched exactly once, at the
    /// resolved index. The PairKey words are NodeId values (32-bit today),
    /// so they fit one u64 with the id range asserted at insert; `last_t`
    /// doubles as both the AR(1) clock and the initialised flag (NaN =
    /// never drawn). The all-ones packed key (two kInvalidValue ids --
    /// unregisterable, so no real pair) marks an empty slot.
    struct FadingState {
        double last_t = 0.0;
        double value_db = 0.0;
    };
    static constexpr std::uint64_t kEmptySlotKey = ~0ull;

    /// State for `key`, inserted empty (key claimed, last_t = NaN) if
    /// absent.
    FadingState& fading_slot(PairKey key);
    void grow_fading();

    ChannelParams params_;
    sim::RandomStream fading_rng_;
    std::vector<std::uint64_t> fading_keys_;
    std::vector<FadingState> fading_states_;
    std::size_t fading_count_ = 0;
};


}  // namespace platoon::net
