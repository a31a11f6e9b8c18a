#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/assert.hpp"

namespace platoon::core {

void Table::add_row(std::vector<std::string> cells) {
    PLATOON_EXPECTS(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
    char buf[64];
    if (std::abs(v) >= 10000.0 && std::abs(v - std::round(v)) < 1e-9) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
        std::snprintf(buf, sizeof buf, "%.*g", precision + 2, v);
    }
    return buf;
}

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    const auto rule = [&] {
        os << '+';
        for (const std::size_t w : widths) {
            for (std::size_t i = 0; i < w + 2; ++i) os << '-';
            os << '+';
        }
        os << '\n';
    };
    const auto line = [&](const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << ' ' << cells[c];
            for (std::size_t i = cells[c].size(); i < widths[c] + 1; ++i)
                os << ' ';
            os << '|';
        }
        os << '\n';
    };

    rule();
    line(headers_);
    rule();
    for (const auto& row : rows_) line(row);
    rule();
}

void Table::print_csv(std::ostream& os) const {
    const auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c > 0) os << ',';
            os << cells[c];
        }
        os << '\n';
    };
    emit(headers_);
    for (const auto& row : rows_) emit(row);
}

void print_banner(std::ostream& os, const std::string& title) {
    os << '\n' << "=== " << title << " ===" << '\n';
}

}  // namespace platoon::core
