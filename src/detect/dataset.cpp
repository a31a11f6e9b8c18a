#include "detect/dataset.hpp"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/taxonomy.hpp"
#include "base/assert.hpp"

namespace platoon::detect {

namespace {

constexpr const char* kFixedColumns[] = {
    "run",          "time_s",
    "receiver",     "sender",
    "msg_type",     "seq",
    "accepted",     "predecessor",
    "claimed_position_m", "claimed_speed_mps",
    "claimed_accel_mps2", "innovation_m",
    "speed_jump_mps",     "jitter_s",
    "seq_delta",          "radar_residual_m",
    "label",              "attacker",
};
constexpr std::size_t kFixedCount = std::size(kFixedColumns);

std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string fmt(const std::optional<double>& v) {
    return v ? fmt(*v) : std::string();
}

const char* type_name(net::MsgType type) {
    switch (type) {
        case net::MsgType::kBeacon: return "beacon";
        case net::MsgType::kManeuver: return "maneuver";
        case net::MsgType::kKeyMgmt: return "keymgmt";
    }
    return "?";
}

std::optional<net::MsgType> type_from(const std::string& name) {
    if (name == "beacon") return net::MsgType::kBeacon;
    if (name == "maneuver") return net::MsgType::kManeuver;
    if (name == "keymgmt") return net::MsgType::kKeyMgmt;
    return std::nullopt;
}

std::vector<std::string> split(const std::string& line) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

std::optional<double> parse_opt(const std::string& cell) {
    if (cell.empty()) return std::nullopt;
    return std::strtod(cell.c_str(), nullptr);
}

std::optional<net::GroundTruth> truth_from(const std::string& label,
                                           const std::string& attacker) {
    net::GroundTruth truth;
    if (label != "benign") {
        bool found = false;
        for (std::uint8_t k = 0;
             k < static_cast<std::uint8_t>(core::AttackKind::kCount_); ++k) {
            if (label == core::to_string(static_cast<core::AttackKind>(k))) {
                truth.attack = k;
                found = true;
                break;
            }
        }
        if (!found) return std::nullopt;
    }
    if (!attacker.empty())
        truth.attacker =
            static_cast<std::uint32_t>(std::strtoul(attacker.c_str(), nullptr, 10));
    return truth;
}

}  // namespace

std::string truth_label(const net::GroundTruth& truth) {
    if (!truth.malicious()) return "benign";
    if (truth.attack >= static_cast<std::uint8_t>(core::AttackKind::kCount_))
        return "unknown";
    return core::to_string(static_cast<core::AttackKind>(truth.attack));
}

void Dataset::append(const Dataset& other) {
    if (detectors.empty() && rows.empty()) detectors = other.detectors;
    PLATOON_EXPECTS(detectors == other.detectors);
    rows.insert(rows.end(), other.rows.begin(), other.rows.end());
}

void Dataset::write_csv(std::ostream& os) const {
    for (std::size_t i = 0; i < kFixedCount; ++i) {
        if (i != 0) os << ',';
        os << kFixedColumns[i];
    }
    for (const std::string& name : detectors) os << ",flag_" << name;
    os << '\n';

    for (const DatasetRow& row : rows) {
        const Features& f = row.features;
        PLATOON_EXPECTS(row.flags.size() == detectors.size());
        os << row.run << ',' << fmt(f.t) << ',' << f.receiver << ','
           << f.sender << ',' << type_name(f.type) << ',' << f.seq << ','
           << (f.accepted ? 1 : 0) << ',' << (f.sender_is_predecessor ? 1 : 0)
           << ',' << fmt(f.claimed_position_m) << ','
           << fmt(f.claimed_speed_mps) << ',' << fmt(f.claimed_accel_mps2)
           << ',' << fmt(f.innovation_m) << ',' << fmt(f.speed_jump_mps) << ','
           << fmt(f.jitter_s) << ',' << fmt(f.seq_delta) << ','
           << fmt(f.radar_residual_m) << ',' << truth_label(f.truth) << ',';
        if (f.truth.attacker != sim::NodeId::kInvalidValue) os << f.truth.attacker;
        for (const std::uint8_t flag : row.flags)
            os << ',' << (flag != 0 ? 1 : 0);
        os << '\n';
    }
}

std::string Dataset::to_csv() const {
    std::ostringstream os;
    write_csv(os);
    return os.str();
}

std::optional<Dataset> Dataset::read_csv(std::istream& is) {
    std::string line;
    if (!std::getline(is, line)) return std::nullopt;
    const std::vector<std::string> header = split(line);
    if (header.size() < kFixedCount) return std::nullopt;
    for (std::size_t i = 0; i < kFixedCount; ++i)
        if (header[i] != kFixedColumns[i]) return std::nullopt;

    Dataset ds;
    for (std::size_t i = kFixedCount; i < header.size(); ++i) {
        if (header[i].rfind("flag_", 0) != 0) return std::nullopt;
        ds.detectors.push_back(header[i].substr(5));
    }

    while (std::getline(is, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> cells = split(line);
        if (cells.size() != kFixedCount + ds.detectors.size())
            return std::nullopt;

        DatasetRow row;
        Features& f = row.features;
        row.run = cells[0];
        f.t = std::strtod(cells[1].c_str(), nullptr);
        f.receiver = static_cast<std::uint32_t>(
            std::strtoul(cells[2].c_str(), nullptr, 10));
        f.sender = static_cast<std::uint32_t>(
            std::strtoul(cells[3].c_str(), nullptr, 10));
        const auto type = type_from(cells[4]);
        if (!type) return std::nullopt;
        f.type = *type;
        f.seq = std::strtoull(cells[5].c_str(), nullptr, 10);
        f.accepted = cells[6] == "1";
        f.sender_is_predecessor = cells[7] == "1";
        f.claimed_position_m = std::strtod(cells[8].c_str(), nullptr);
        f.claimed_speed_mps = std::strtod(cells[9].c_str(), nullptr);
        f.claimed_accel_mps2 = std::strtod(cells[10].c_str(), nullptr);
        f.innovation_m = parse_opt(cells[11]);
        f.speed_jump_mps = parse_opt(cells[12]);
        f.jitter_s = parse_opt(cells[13]);
        f.seq_delta = parse_opt(cells[14]);
        f.radar_residual_m = parse_opt(cells[15]);
        const auto truth = truth_from(cells[16], cells[17]);
        if (!truth) return std::nullopt;
        f.truth = *truth;
        for (std::size_t i = 0; i < ds.detectors.size(); ++i)
            row.flags.push_back(cells[kFixedCount + i] == "1" ? 1 : 0);
        ds.rows.push_back(std::move(row));
    }
    return ds;
}

std::optional<Dataset> Dataset::from_csv(const std::string& text) {
    std::istringstream is(text);
    return read_csv(is);
}

}  // namespace platoon::detect
