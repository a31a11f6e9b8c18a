#include "crypto/eddsa.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "base/assert.hpp"

namespace platoon::crypto {

namespace {

using u128 = unsigned __int128;
constexpr std::uint64_t kMask = (1ull << 51) - 1;

/// One pass of carry propagation with the 19-fold wraparound at the top.
void carry_pass(Fe& f) {
    std::uint64_t c;
    c = f.limb[0] >> 51; f.limb[0] &= kMask; f.limb[1] += c;
    c = f.limb[1] >> 51; f.limb[1] &= kMask; f.limb[2] += c;
    c = f.limb[2] >> 51; f.limb[2] &= kMask; f.limb[3] += c;
    c = f.limb[3] >> 51; f.limb[3] &= kMask; f.limb[4] += c;
    c = f.limb[4] >> 51; f.limb[4] &= kMask; f.limb[0] += 19 * c;
}

/// Fully reduces limbs into [0, p).
Fe fe_canonical(const Fe& a) {
    Fe f = a;
    // Carry until every limb fits in 51 bits (the wraparound adds at most
    // 19*carry to limb 0, so this converges in a couple of passes; the bound
    // of 10 is a safety net, not a tuning parameter).
    for (int pass = 0; pass < 10; ++pass) {
        carry_pass(f);
        bool clean = true;
        for (const auto limb : f.limb) clean = clean && limb <= kMask;
        if (clean) break;
    }
    for (const auto limb : f.limb) PLATOON_ASSERT(limb <= kMask);
    // Now the value is < 2^255 (< 2p); conditionally subtract p once.
    const bool ge_p = f.limb[4] == kMask && f.limb[3] == kMask &&
                      f.limb[2] == kMask && f.limb[1] == kMask &&
                      f.limb[0] >= kMask - 18;  // 2^51 - 19
    if (ge_p) {
        f.limb[0] -= kMask - 18;
        f.limb[1] = f.limb[2] = f.limb[3] = f.limb[4] = 0;
    }
    return f;
}

/// a^e where e is a 32-byte little-endian exponent.
Fe fe_pow(const Fe& a, const std::array<std::uint8_t, 32>& e) {
    Fe result = Fe::one();
    bool started = false;
    for (int i = 255; i >= 0; --i) {
        if (started) result = fe_sq(result);
        const bool bit =
            (e[static_cast<std::size_t>(i) / 8] >> (i % 8)) & 1;
        if (bit) {
            result = started ? fe_mul(result, a) : a;
            started = true;
        }
    }
    return started ? result : Fe::one();
}

std::array<std::uint8_t, 32> exponent_p_minus_2() {
    std::array<std::uint8_t, 32> e;
    e.fill(0xFF);
    e[0] = 0xEB;  // p - 2 = 2^255 - 21
    e[31] = 0x7F;
    return e;
}

std::array<std::uint8_t, 32> exponent_p_plus_3_over_8() {
    std::array<std::uint8_t, 32> e;  // 2^252 - 2
    e.fill(0xFF);
    e[0] = 0xFE;
    e[31] = 0x0F;
    return e;
}

std::array<std::uint8_t, 32> exponent_p_minus_1_over_4() {
    std::array<std::uint8_t, 32> e;  // 2^253 - 5
    e.fill(0xFF);
    e[0] = 0xFB;
    e[31] = 0x1F;
    return e;
}

const Fe& sqrt_minus_one() {
    static const Fe s = fe_pow(Fe::from_u64(2), exponent_p_minus_1_over_4());
    return s;
}

const Fe& curve_d() {
    // d = -121665 / 121666 mod p
    static const Fe d =
        fe_mul(fe_neg(Fe::from_u64(121665)), fe_inv(Fe::from_u64(121666)));
    return d;
}

const Fe& curve_2d() {
    static const Fe d2 = fe_add(curve_d(), curve_d());
    return d2;
}

}  // namespace

Fe fe_add(const Fe& a, const Fe& b) {
    Fe r;
    for (int i = 0; i < 5; ++i)
        r.limb[static_cast<std::size_t>(i)] =
            a.limb[static_cast<std::size_t>(i)] +
            b.limb[static_cast<std::size_t>(i)];
    carry_pass(r);
    return r;
}

Fe fe_sub(const Fe& a, const Fe& b) {
    // a + 2p - b keeps limbs non-negative (inputs have limbs < 2^52).
    static constexpr std::uint64_t k2p0 = 0xFFFFFFFFFFFDAull;   // 2*(2^51-19)
    static constexpr std::uint64_t k2pi = 0xFFFFFFFFFFFFEull;   // 2*(2^51-1)
    Fe r;
    r.limb[0] = a.limb[0] + k2p0 - b.limb[0];
    for (std::size_t i = 1; i < 5; ++i)
        r.limb[i] = a.limb[i] + k2pi - b.limb[i];
    carry_pass(r);
    return r;
}

Fe fe_neg(const Fe& a) { return fe_sub(Fe::zero(), a); }

Fe fe_mul(const Fe& f, const Fe& g) {
    const u128 f0 = f.limb[0], f1 = f.limb[1], f2 = f.limb[2],
               f3 = f.limb[3], f4 = f.limb[4];
    const std::uint64_t g0 = g.limb[0], g1 = g.limb[1], g2 = g.limb[2],
                        g3 = g.limb[3], g4 = g.limb[4];
    const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
                        g4_19 = 19 * g4;

    u128 r0 = f0 * g0 + f1 * g4_19 + f2 * g3_19 + f3 * g2_19 + f4 * g1_19;
    u128 r1 = f0 * g1 + f1 * g0 + f2 * g4_19 + f3 * g3_19 + f4 * g2_19;
    u128 r2 = f0 * g2 + f1 * g1 + f2 * g0 + f3 * g4_19 + f4 * g3_19;
    u128 r3 = f0 * g3 + f1 * g2 + f2 * g1 + f3 * g0 + f4 * g4_19;
    u128 r4 = f0 * g4 + f1 * g3 + f2 * g2 + f3 * g1 + f4 * g0;

    Fe out;
    u128 c;
    c = r0 >> 51; r0 &= kMask; r1 += c;
    c = r1 >> 51; r1 &= kMask; r2 += c;
    c = r2 >> 51; r2 &= kMask; r3 += c;
    c = r3 >> 51; r3 &= kMask; r4 += c;
    c = r4 >> 51; r4 &= kMask; r0 += 19 * c;
    c = r0 >> 51; r0 &= kMask; r1 += c;

    out.limb[0] = static_cast<std::uint64_t>(r0);
    out.limb[1] = static_cast<std::uint64_t>(r1);
    out.limb[2] = static_cast<std::uint64_t>(r2);
    out.limb[3] = static_cast<std::uint64_t>(r3);
    out.limb[4] = static_cast<std::uint64_t>(r4);
    return out;
}

Fe fe_sq(const Fe& a) { return fe_mul(a, a); }

Fe fe_inv(const Fe& a) {
    PLATOON_EXPECTS(!fe_is_zero(a));
    return fe_pow(a, exponent_p_minus_2());
}

std::optional<Fe> fe_sqrt(const Fe& a) {
    if (fe_is_zero(a)) return Fe::zero();
    Fe candidate = fe_pow(a, exponent_p_plus_3_over_8());
    if (fe_equal(fe_sq(candidate), a)) return candidate;
    candidate = fe_mul(candidate, sqrt_minus_one());
    if (fe_equal(fe_sq(candidate), a)) return candidate;
    return std::nullopt;
}

Bytes fe_to_bytes(const Fe& a) {
    const Fe f = fe_canonical(a);
    Bytes out(32, 0);
    // Pack 5x51 bits little-endian.
    u128 acc = 0;
    int acc_bits = 0;
    std::size_t idx = 0;
    for (int i = 0; i < 5; ++i) {
        acc |= static_cast<u128>(f.limb[static_cast<std::size_t>(i)])
               << acc_bits;
        acc_bits += 51;
        while (acc_bits >= 8 && idx < 32) {
            out[idx++] = static_cast<std::uint8_t>(acc);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    while (idx < 32) {
        out[idx++] = static_cast<std::uint8_t>(acc);
        acc >>= 8;
    }
    return out;
}

Fe fe_from_bytes(BytesView b) {
    PLATOON_EXPECTS(b.size() == 32);
    u128 acc = 0;
    int acc_bits = 0;
    std::size_t idx = 0;
    Fe f;
    for (int i = 0; i < 5; ++i) {
        while (acc_bits < 51 && idx < 32) {
            acc |= static_cast<u128>(b[idx++]) << acc_bits;
            acc_bits += 8;
        }
        f.limb[static_cast<std::size_t>(i)] =
            static_cast<std::uint64_t>(acc) & kMask;
        acc >>= 51;
        acc_bits -= 51;
        if (acc_bits < 0) acc_bits = 0;
    }
    // Drop the top (256th) bit implicitly; re-reduce.
    carry_pass(f);
    return f;
}

bool fe_equal(const Fe& a, const Fe& b) {
    return fe_to_bytes(a) == fe_to_bytes(b);
}

bool fe_is_zero(const Fe& a) { return fe_equal(a, Fe::zero()); }

Point Point::identity() {
    return Point{Fe::zero(), Fe::one(), Fe::one(), Fe::zero()};
}

Point point_add(const Point& p, const Point& q) {
    const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
    const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
    const Fe c = fe_mul(fe_mul(p.t, curve_2d()), q.t);
    const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
    const Fe e = fe_sub(b, a);
    const Fe f = fe_sub(d, c);
    const Fe g = fe_add(d, c);
    const Fe h = fe_add(b, a);
    return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Point point_double(const Point& p) {
    const Fe a = fe_sq(p.x);
    const Fe b = fe_sq(p.y);
    const Fe c = fe_add(fe_sq(p.z), fe_sq(p.z));
    const Fe h = fe_add(a, b);
    const Fe e = fe_sub(h, fe_sq(fe_add(p.x, p.y)));
    const Fe g = fe_sub(a, b);
    const Fe f = fe_add(c, g);
    return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Point point_neg(const Point& p) {
    return Point{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

Point double_scalar_mul(const U256& a, const Point& A, const U256& b,
                        const Point& B) {
    const Point sum = point_add(A, B);
    Point r = Point::identity();
    const int top = std::max(a.top_bit(), b.top_bit());
    for (int i = top; i >= 0; --i) {
        r = point_double(r);
        const bool bit_a = a.bit(i);
        const bool bit_b = b.bit(i);
        if (bit_a && bit_b) {
            r = point_add(r, sum);
        } else if (bit_a) {
            r = point_add(r, A);
        } else if (bit_b) {
            r = point_add(r, B);
        }
    }
    return r;
}

Point scalar_mul(const U256& k, const Point& p) {
    Point result = Point::identity();
    const int top = k.top_bit();
    for (int i = top; i >= 0; --i) {
        result = point_double(result);
        if (k.bit(i)) result = point_add(result, p);
    }
    return result;
}

namespace {

/// 15-entry window table: t[j-1] = j*P for j in 1..15.
using WindowTable = std::array<Point, 15>;

WindowTable window_table(const Point& p) {
    WindowTable t;
    t[0] = p;
    t[1] = point_double(p);
    for (std::size_t j = 2; j < 15; ++j) t[j] = point_add(t[j - 1], p);
    return t;
}

/// Comb table for the base point: comb[w][j-1] = j * 16^w * B. One-time
/// cost (magic static); afterwards a fixed-base multiplication is at most
/// 64 additions and no doublings.
const std::array<WindowTable, 64>& base_comb() {
    static const std::array<WindowTable, 64> comb = [] {
        std::array<WindowTable, 64> c;
        Point window_base = base_point();
        for (std::size_t w = 0; w < 64; ++w) {
            c[w] = window_table(window_base);
            if (w + 1 < 64) {
                // 16^(w+1) * B = 2 * (8 * 16^w * B), already in the table.
                window_base = point_double(c[w][7]);
            }
        }
        return c;
    }();
    return comb;
}

}  // namespace

Point scalar_mul_base(const U256& k) {
    const auto& comb = base_comb();
    Point acc = Point::identity();
    for (int w = 0; w < 64; ++w) {
        const unsigned digit = k.window4(w);
        if (digit != 0)
            acc = point_add(acc, comb[static_cast<std::size_t>(w)][digit - 1]);
    }
    return acc;
}

Point scalar_mul_windowed(const U256& k, const Point& p) {
    const int top = k.top_bit();
    if (top < 0) return Point::identity();
    const WindowTable table = window_table(p);
    const int top_window = top / 4;
    Point acc = Point::identity();
    for (int w = top_window; w >= 0; --w) {
        if (w != top_window)
            for (int d = 0; d < 4; ++d) acc = point_double(acc);
        const unsigned digit = k.window4(w);
        if (digit != 0) acc = point_add(acc, table[digit - 1]);
    }
    return acc;
}

bool point_equal(const Point& p, const Point& q) {
    // x1/z1 == x2/z2  <=>  x1 z2 == x2 z1 ; same for y.
    return fe_equal(fe_mul(p.x, q.z), fe_mul(q.x, p.z)) &&
           fe_equal(fe_mul(p.y, q.z), fe_mul(q.y, p.z));
}

Bytes point_to_bytes(const Point& p) {
    const Fe zinv = fe_inv(p.z);
    const Fe x = fe_mul(p.x, zinv);
    const Fe y = fe_mul(p.y, zinv);
    Bytes out = fe_to_bytes(x);
    append(out, fe_to_bytes(y));
    return out;
}

std::optional<Point> point_from_bytes(BytesView b) {
    if (b.size() != 64) return std::nullopt;
    Point p;
    p.x = fe_from_bytes(b.subspan(0, 32));
    p.y = fe_from_bytes(b.subspan(32, 32));
    p.z = Fe::one();
    p.t = fe_mul(p.x, p.y);
    if (!on_curve(p)) return std::nullopt;
    return p;
}

bool on_curve(const Point& p) {
    // Projective check: (Y^2 - X^2) Z^2 == Z^4 + d X^2 Y^2, and T Z == X Y.
    const Fe x2 = fe_sq(p.x);
    const Fe y2 = fe_sq(p.y);
    const Fe z2 = fe_sq(p.z);
    const Fe lhs = fe_mul(fe_sub(y2, x2), z2);
    const Fe rhs = fe_add(fe_sq(z2), fe_mul(curve_d(), fe_mul(x2, y2)));
    if (!fe_equal(lhs, rhs)) return false;
    return fe_equal(fe_mul(p.t, p.z), fe_mul(p.x, p.y));
}

const Point& base_point() {
    static const Point b = [] {
        const Fe y = fe_mul(Fe::from_u64(4), fe_inv(Fe::from_u64(5)));
        // x^2 = (y^2 - 1) / (d y^2 + 1)
        const Fe y2 = fe_sq(y);
        const Fe num = fe_sub(y2, Fe::one());
        const Fe den = fe_add(fe_mul(curve_d(), y2), Fe::one());
        const auto x_opt = fe_sqrt(fe_mul(num, fe_inv(den)));
        PLATOON_ASSERT(x_opt.has_value());
        Fe x = *x_opt;
        // RFC 8032 base point has even x (its canonical encoding ends in
        // an even byte); pick that root.
        if (fe_to_bytes(x)[0] & 1) x = fe_neg(x);
        Point p{x, y, Fe::one(), fe_mul(x, y)};
        PLATOON_ASSERT(on_curve(p));
        return p;
    }();
    return b;
}

const U256& group_order() {
    static const U256 l = U256::from_hex(
        "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed");
    return l;
}

namespace {

U256 hash_to_scalar(std::initializer_list<BytesView> parts) {
    Sha256 h;
    h.update(std::string_view("platoonsec.scalar.v1"));
    for (const auto& p : parts) h.update(p);
    const auto digest = h.finish();
    return mod(U256::from_le_bytes(BytesView(digest.data(), digest.size())),
               group_order());
}

}  // namespace

KeyPair KeyPair::from_seed(BytesView seed32) {
    KeyPair kp;
    kp.secret = hash_to_scalar({seed32});
    if (kp.secret.is_zero()) kp.secret = U256(1);
    kp.public_key = scalar_mul_base(kp.secret);
    kp.public_bytes = point_to_bytes(kp.public_key);
    return kp;
}

Signature sign(const KeyPair& key, BytesView msg) {
    const Bytes secret_bytes = key.secret.to_le_bytes();
    const U256 r = hash_to_scalar({BytesView(secret_bytes), msg});
    const U256 r_eff = r.is_zero() ? U256(1) : r;
    const Point big_r = scalar_mul_base(r_eff);
    const Bytes r_bytes = point_to_bytes(big_r);
    const U256 e = hash_to_scalar(
        {BytesView(r_bytes), BytesView(key.public_bytes), msg});
    const U256 s =
        add_mod(r_eff, mul_mod(e, key.secret, group_order()), group_order());

    Signature sig;
    sig.bytes = r_bytes;
    append(sig.bytes, s.to_le_bytes());
    PLATOON_ENSURES(sig.bytes.size() == 96);
    return sig;
}

bool verify(BytesView public_key_bytes, BytesView msg, const Signature& sig) {
    if (sig.bytes.size() != 96) return false;
    const BytesView sig_view(sig.bytes);
    const auto big_r = point_from_bytes(sig_view.subspan(0, 64));
    if (!big_r) return false;
    const U256 s = U256::from_le_bytes(sig_view.subspan(64, 32));
    if (cmp(s, group_order()) != std::strong_ordering::less) return false;
    const auto pub = point_from_bytes(public_key_bytes);
    if (!pub) return false;
    const U256 e =
        hash_to_scalar({sig_view.subspan(0, 64), public_key_bytes, msg});
    // sB == R + eP, evaluated as sB + e(-P) == R on the windowed paths.
    const Point lhs = point_add(scalar_mul_base(s),
                                scalar_mul_windowed(e, point_neg(*pub)));
    return point_equal(lhs, *big_r);
}

Bytes dh_shared_key(const U256& my_secret, BytesView their_public_bytes) {
    const auto pub = point_from_bytes(their_public_bytes);
    PLATOON_EXPECTS(pub.has_value());
    const Point shared = scalar_mul_windowed(my_secret, *pub);
    Sha256 h;
    h.update(std::string_view("platoonsec.ecdh.v1"));
    const Bytes sb = point_to_bytes(shared);
    h.update(BytesView(sb));
    const auto d = h.finish();
    return Bytes(d.begin(), d.end());
}

}  // namespace platoon::crypto
