// Schnorr signatures and Diffie-Hellman over edwards25519.
//
// Field arithmetic mod p = 2^255 - 19 uses the standard 5x51-bit limb
// representation; points use extended homogeneous coordinates (RFC 8032
// formulas). The signature scheme is deterministic Schnorr with SHA-256 as
// the hash (Ed25519-shaped; functionally equivalent to the ECDSA of IEEE
// 1609.2 for the simulator's purposes: existential unforgeability against
// the simulated attacker, who never holds the private key).
//
// Scalar arithmetic modulo the group order L uses crypto/u256. None of this
// is constant-time -- it protects a *simulated* network, not real traffic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/bytes.hpp"
#include "crypto/u256.hpp"

namespace platoon::crypto {

/// Field element mod 2^255 - 19, radix-51.
struct Fe {
    std::array<std::uint64_t, 5> limb{};

    static Fe zero() { return {}; }
    static Fe one() {
        Fe r;
        r.limb[0] = 1;
        return r;
    }
    static Fe from_u64(std::uint64_t v) {
        Fe r;
        r.limb[0] = v & ((1ull << 51) - 1);
        r.limb[1] = v >> 51;
        return r;
    }
};

[[nodiscard]] Fe fe_add(const Fe& a, const Fe& b);
[[nodiscard]] Fe fe_sub(const Fe& a, const Fe& b);
[[nodiscard]] Fe fe_mul(const Fe& a, const Fe& b);
[[nodiscard]] Fe fe_sq(const Fe& a);
[[nodiscard]] Fe fe_neg(const Fe& a);
/// Multiplicative inverse via Fermat (a^(p-2)); a must be nonzero.
[[nodiscard]] Fe fe_inv(const Fe& a);
/// a^((p-3)/8)-based square root; nullopt when a is a non-residue.
[[nodiscard]] std::optional<Fe> fe_sqrt(const Fe& a);
/// Canonical 32-byte little-endian encoding.
[[nodiscard]] Bytes fe_to_bytes(const Fe& a);
[[nodiscard]] Fe fe_from_bytes(BytesView b);  // 32 bytes, top bit ignored
[[nodiscard]] bool fe_equal(const Fe& a, const Fe& b);
[[nodiscard]] bool fe_is_zero(const Fe& a);

/// Point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T), with x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
    Fe x, y, z, t;

    /// Neutral element (0, 1).
    static Point identity();
};

[[nodiscard]] Point point_add(const Point& p, const Point& q);
[[nodiscard]] Point point_double(const Point& p);
[[nodiscard]] Point point_neg(const Point& p);
/// Reference double-and-add. Kept as the oracle the windowed/precomputed
/// paths below are differentially tested against; not used on hot paths.
[[nodiscard]] Point scalar_mul(const U256& k, const Point& p);
/// a*A + b*B via Shamir's trick (one shared doubling chain). Reference
/// implementation; the verifier now runs on the windowed paths below.
[[nodiscard]] Point double_scalar_mul(const U256& a, const Point& A,
                                      const U256& b, const Point& B);
/// k*B for the standard base point via a precomputed 4-bit comb table
/// (64 windows x 15 odd-index multiples): ~64 additions, no doublings.
[[nodiscard]] Point scalar_mul_base(const U256& k);
/// k*P via a fixed 4-bit window: 15-entry table of small multiples, then
/// 4 doublings + at most one addition per window.
[[nodiscard]] Point scalar_mul_windowed(const U256& k, const Point& p);
[[nodiscard]] bool point_equal(const Point& p, const Point& q);
/// Affine (x, y) as 64 bytes (32 LE bytes each); used as the public-key
/// wire format (uncompressed; the simulator doesn't need point compression).
[[nodiscard]] Bytes point_to_bytes(const Point& p);
[[nodiscard]] std::optional<Point> point_from_bytes(BytesView b);
/// True iff -x^2 + y^2 == 1 + d x^2 y^2.
[[nodiscard]] bool on_curve(const Point& p);

/// The standard base point B and group order L.
[[nodiscard]] const Point& base_point();
[[nodiscard]] const U256& group_order();

/// Key pair. Private keys are scalars mod L derived from a 32-byte seed.
struct KeyPair {
    U256 secret;       ///< scalar in [1, L)
    Point public_key;  ///< secret * B
    Bytes public_bytes;

    static KeyPair from_seed(BytesView seed32);
};

/// 64-byte signature: R (uncompressed would be 64; we store R as the 32-byte
/// challenge hash input via its encoded form) -- concretely: sig = R_bytes
/// (64) || s (32 LE), 96 bytes total.
struct Signature {
    Bytes bytes;  ///< 96 bytes
};

/// Deterministic Schnorr: r = H(secret || msg) mod L, R = rB,
/// e = H(R || pub || msg) mod L, s = r + e*secret mod L.
[[nodiscard]] Signature sign(const KeyPair& key, BytesView msg);

/// Verifies sB == R + e*Pub.
[[nodiscard]] bool verify(BytesView public_key_bytes, BytesView msg,
                          const Signature& sig);

/// Diffie-Hellman: SHA-256 of the shared point secret_a * Pub_b. Both sides
/// derive the same 32-byte key.
[[nodiscard]] Bytes dh_shared_key(const U256& my_secret,
                                  BytesView their_public_bytes);

}  // namespace platoon::crypto
