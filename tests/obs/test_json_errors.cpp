// obs::Json parse-error paths: the parser is the trust boundary for every
// on-disk artifact (bench JSON, coverage ledgers, scenario descriptions),
// so malformed input must come back as nullopt -- never a partial value, a
// silently-dropped key, or unbounded recursion.
//
// The same file pins the writer side: every dump, and every committed
// bench/baselines/*.json, must be strict UTF-8 and strict RFC 8259 JSON.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/json.hpp"

using platoon::obs::Json;

namespace {

/// RFC 3629 UTF-8: no overlong forms, no surrogates, nothing past U+10FFFF.
bool strict_utf8(std::string_view s) {
    std::size_t i = 0;
    while (i < s.size()) {
        const auto lead = static_cast<unsigned char>(s[i]);
        if (lead < 0x80) {
            ++i;
            continue;
        }
        std::size_t len = 0;
        std::uint32_t cp = 0;
        std::uint32_t min = 0;
        if ((lead & 0xE0) == 0xC0) {
            len = 2, cp = lead & 0x1Fu, min = 0x80;
        } else if ((lead & 0xF0) == 0xE0) {
            len = 3, cp = lead & 0x0Fu, min = 0x800;
        } else if ((lead & 0xF8) == 0xF0) {
            len = 4, cp = lead & 0x07u, min = 0x10000;
        } else {
            return false;
        }
        if (i + len > s.size()) return false;
        for (std::size_t k = 1; k < len; ++k) {
            const auto b = static_cast<unsigned char>(s[i + k]);
            if ((b & 0xC0) != 0x80) return false;
            cp = (cp << 6) | (b & 0x3Fu);
        }
        if (cp < min || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF))
            return false;
        i += len;
    }
    return true;
}

/// RFC 8259 recognizer, independent of obs::Json: no NaN/Infinity tokens,
/// no '+' sign or leading zeros, no raw control characters in strings.
class StrictJson {
public:
    static bool valid(std::string_view text) {
        StrictJson p(text);
        if (!p.value(0)) return false;
        p.ws();
        return p.pos_ == text.size();
    }

private:
    explicit StrictJson(std::string_view text) : t_(text) {}

    bool peek(char c) const { return pos_ < t_.size() && t_[pos_] == c; }
    void ws() {
        while (peek(' ') || peek('\t') || peek('\n') || peek('\r')) ++pos_;
    }
    bool eat(char c) {
        ws();
        if (!peek(c)) return false;
        ++pos_;
        return true;
    }
    bool literal(std::string_view word) {
        if (t_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }
    bool digits() {
        const std::size_t start = pos_;
        while (pos_ < t_.size() &&
               std::isdigit(static_cast<unsigned char>(t_[pos_])))
            ++pos_;
        return pos_ > start;
    }
    bool number() {
        if (peek('-')) ++pos_;
        if (peek('0')) {
            ++pos_;
        } else if (!digits()) {
            return false;
        }
        if (peek('.')) {
            ++pos_;
            if (!digits()) return false;
        }
        if (peek('e') || peek('E')) {
            ++pos_;
            if (peek('+') || peek('-')) ++pos_;
            if (!digits()) return false;
        }
        return true;
    }
    bool string() {
        ++pos_;  // opening quote
        while (pos_ < t_.size()) {
            const auto c = static_cast<unsigned char>(t_[pos_++]);
            if (c == '"') return true;
            if (c < 0x20) return false;
            if (c != '\\') continue;
            if (pos_ >= t_.size()) return false;
            const char esc = t_[pos_++];
            if (esc == 'u') {
                for (int k = 0; k < 4; ++k, ++pos_)
                    if (pos_ >= t_.size() ||
                        !std::isxdigit(static_cast<unsigned char>(t_[pos_])))
                        return false;
            } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                       std::string_view::npos) {
                return false;
            }
        }
        return false;
    }
    bool value(int depth) {
        ws();
        if (pos_ >= t_.size() || depth > 128) return false;
        switch (t_[pos_]) {
            case '{':
                ++pos_;
                if (eat('}')) return true;
                do {
                    ws();
                    if (!peek('"') || !string() || !eat(':') ||
                        !value(depth + 1))
                        return false;
                } while (eat(','));
                return eat('}');
            case '[':
                ++pos_;
                if (eat(']')) return true;
                do {
                    if (!value(depth + 1)) return false;
                } while (eat(','));
                return eat(']');
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }

    std::string_view t_;
    std::size_t pos_ = 0;
};

}  // namespace

TEST(JsonParseErrors, TruncatedInputIsRejected) {
    for (const char* text :
         {"", "{", "[", "{\"a\"", "{\"a\":", "{\"a\": 1", "[1, 2",
          "\"unterminated", "{\"a\": \"b", "tru", "nul", "-"}) {
        EXPECT_FALSE(Json::parse(text).has_value()) << text;
    }
}

TEST(JsonParseErrors, TrailingJunkIsRejected) {
    EXPECT_FALSE(Json::parse("{} {}").has_value());
    EXPECT_FALSE(Json::parse("1 2").has_value());
    EXPECT_FALSE(Json::parse("[1] x").has_value());
}

TEST(JsonParseErrors, BadEscapesAreRejected) {
    EXPECT_FALSE(Json::parse("\"\\q\"").has_value());     // unknown escape
    EXPECT_FALSE(Json::parse("\"\\u12\"").has_value());   // short \u
    EXPECT_FALSE(Json::parse("\"\\u12zx\"").has_value()); // non-hex \u
    EXPECT_FALSE(Json::parse("\"\\\"").has_value());      // escape then EOF
    // The well-formed versions parse fine.
    const auto ok = Json::parse("\"a\\u0041\\n\"");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->as_string(), "aA\n");
}

TEST(JsonParseErrors, DuplicateObjectKeysAreRejected) {
    EXPECT_FALSE(Json::parse(R"({"a": 1, "a": 2})").has_value());
    EXPECT_FALSE(
        Json::parse(R"({"a": 1, "b": {"c": 1, "c": 2}})").has_value());
    // Same key at different depths is legitimate.
    const auto ok = Json::parse(R"({"a": {"a": 1}})");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->at("a").at("a").as_int(), 1);
}

TEST(JsonParseErrors, NestingBeyondTheDepthCapIsRejected) {
    // 96 levels parse; 97 do not -- and neither smashes the stack.
    const auto nested = [](int depth) {
        std::string text;
        for (int i = 0; i < depth; ++i) text += '[';
        text += '1';
        for (int i = 0; i < depth; ++i) text += ']';
        return text;
    };
    EXPECT_TRUE(Json::parse(nested(96)).has_value());
    EXPECT_FALSE(Json::parse(nested(97)).has_value());
    EXPECT_FALSE(Json::parse(nested(10000)).has_value());

    std::string objects;
    for (int i = 0; i < 200; ++i) objects += "{\"k\":";
    objects += "1";
    for (int i = 0; i < 200; ++i) objects += '}';
    EXPECT_FALSE(Json::parse(objects).has_value());
}

TEST(JsonParseErrors, MalformedNumbersAreRejected) {
    EXPECT_FALSE(Json::parse("1.2.3").has_value());
    EXPECT_FALSE(Json::parse("1e").has_value());
    EXPECT_FALSE(Json::parse("--1").has_value());
}

TEST(JsonParseErrors, IntAndDoubleStayDistinctThroughRoundTrip) {
    // The property the byte-identical scenario migration leans on: "0.95"
    // re-parses as the same double a C++ literal produces, and integers
    // stay integers.
    const auto doc = Json::parse(R"({"i": 42, "d": 0.95})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->at("i").is_int());
    EXPECT_FALSE(doc->at("d").is_int());
    EXPECT_EQ(doc->at("d").as_double(), 0.95);
    const auto again = Json::parse(doc->dump());
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(*again == *doc);
}

TEST(JsonDump, NonFiniteDoublesAreWrittenAsNull) {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Json doc = Json::object();
    doc.set("nan", Json::number(kNan));
    doc.set("pos", Json::number(kInf));
    doc.set("neg", Json::number(-kInf));
    doc.set("finite", Json::number(2.0));
    Json arr = Json::array();
    arr.as_array().push_back(Json::number(kNan));
    doc.set("list", std::move(arr));

    for (const int indent : {0, 2}) {
        const std::string text = doc.dump(indent);
        EXPECT_TRUE(StrictJson::valid(text)) << text;
        const auto again = Json::parse(text);
        ASSERT_TRUE(again.has_value()) << text;
        EXPECT_TRUE(again->at("nan").is_null());
        EXPECT_TRUE(again->at("pos").is_null());
        EXPECT_TRUE(again->at("neg").is_null());
        EXPECT_TRUE(again->at("list").as_array().at(0).is_null());
        EXPECT_EQ(again->at("finite").as_double(), 2.0);
    }
}

TEST(JsonDump, StrictCheckersRejectWhatIsNotJsonOrUtf8) {
    // The checkers above would pass anything if they were broken; pin that
    // they reject the tokens a careless writer produces.
    for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity", "+1",
                            "01", "1.", ".5", "[1,]", "{\"a\" 1}",
                            "\"\x01\""}) {
        EXPECT_FALSE(StrictJson::valid(bad)) << bad;
    }
    for (const char* bad : {"nan", "inf", "-inf", "[nan]"}) {
        EXPECT_FALSE(Json::parse(bad).has_value()) << bad;
    }
    EXPECT_TRUE(StrictJson::valid(R"({"a": [1, -0.5e3, true, null, "\u00e9"]})"));

    EXPECT_TRUE(strict_utf8("plain \xE2\x82\xAC \xF0\x9F\x9A\x9A"));
    for (const char* bad : {"\xC0\xAF", "\xED\xA0\x80", "\xF4\x90\x80\x80",
                            "\xE2\x82", "\x80", "\xFF"}) {
        EXPECT_FALSE(strict_utf8(bad)) << "bytes " << bad;
    }
}

TEST(BaselineArtifacts, EveryBaselineIsStrictUtf8AndStrictJson) {
    namespace fs = std::filesystem;
    std::size_t checked = 0;
    for (const auto& entry : fs::directory_iterator(PLATOON_BASELINE_DIR)) {
        if (entry.path().extension() != ".json") continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        const std::string text = bytes.str();
        const std::string name = entry.path().filename().string();
        EXPECT_TRUE(strict_utf8(text)) << name;
        EXPECT_TRUE(StrictJson::valid(text)) << name;
        EXPECT_TRUE(Json::parse(text).has_value()) << name;
        ++checked;
    }
    EXPECT_GE(checked, 5u);
}
