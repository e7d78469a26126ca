#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "util/artifact.hpp"
#include "util/logging.hpp"

namespace wss::util {

namespace {

std::string
kindName(JsonValue::Kind kind)
{
    switch (kind) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return "bool";
    case JsonValue::Kind::Number: return "number";
    case JsonValue::Kind::String: return "string";
    case JsonValue::Kind::Object: return "object";
    case JsonValue::Kind::Array: return "array";
    }
    return "?";
}

} // namespace

/// Recursive-descent parser over the whole document, building a
/// JsonValue tree.
class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string_view what)
        : text_(text), what_(what)
    {
    }

    JsonValue
    document()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        fatal(what_, ": malformed JSON at byte ", pos_, ": ", msg);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("bad literal");
        pos_ += word.size();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                const std::string hex(text_.substr(pos_, 4));
                char *end = nullptr;
                const long code = std::strtol(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4)
                    fail("bad \\u escape");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else {
                    // Preserve the escape text verbatim — lossless
                    // for reporting, and avoids UTF-8 encoding here.
                    out += "\\u";
                    out += hex;
                }
                pos_ += 4;
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    double
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            std::size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            fail("bad number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                fail("bad number fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                fail("bad number exponent");
        }
        const std::string token(text_.substr(start, pos_ - start));
        // strtod saturates an overflowing literal to +-inf; no writer
        // in the repo emits one, so it is corrupt input.
        const double v = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(v))
            fail("number out of range");
        return v;
    }

    JsonValue
    value()
    {
        JsonValue v;
        switch (peek()) {
        case '{': {
            ++pos_;
            v.kind_ = JsonValue::Kind::Object;
            skipSpace();
            if (consume('}'))
                return v;
            while (true) {
                skipSpace();
                std::string key = parseString();
                expect(':');
                v.object_.emplace_back(std::move(key), value());
                if (consume(','))
                    continue;
                expect('}');
                return v;
            }
        }
        case '[': {
            ++pos_;
            v.kind_ = JsonValue::Kind::Array;
            skipSpace();
            if (consume(']'))
                return v;
            while (true) {
                v.array_.push_back(value());
                if (consume(','))
                    continue;
                expect(']');
                return v;
            }
        }
        case '"':
            v.kind_ = JsonValue::Kind::String;
            v.string_ = parseString();
            return v;
        case 't':
            literal("true");
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = true;
            return v;
        case 'f':
            literal("false");
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = false;
            return v;
        case 'n':
            literal("null");
            v.kind_ = JsonValue::Kind::Null;
            return v;
        default:
            v.kind_ = JsonValue::Kind::Number;
            v.number_ = parseNumber();
            return v;
        }
    }

    std::string_view text_;
    std::string_view what_;
    std::size_t pos_ = 0;
};

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::require(std::string_view key, std::string_view what) const
{
    const JsonValue *v = find(key);
    if (!v)
        fatal(what, ": missing required member \"", key, "\"");
    return *v;
}

bool
JsonValue::asBool(std::string_view what) const
{
    if (kind_ != Kind::Bool)
        fatal(what, ": expected bool, got ", kindName(kind_));
    return bool_;
}

double
JsonValue::asNumber(std::string_view what) const
{
    if (kind_ != Kind::Number)
        fatal(what, ": expected number, got ", kindName(kind_));
    return number_;
}

const std::string &
JsonValue::asString(std::string_view what) const
{
    if (kind_ != Kind::String)
        fatal(what, ": expected string, got ", kindName(kind_));
    return string_;
}

const std::vector<JsonValue> &
JsonValue::asArray(std::string_view what) const
{
    if (kind_ != Kind::Array)
        fatal(what, ": expected array, got ", kindName(kind_));
    return array_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject(std::string_view what) const
{
    if (kind_ != Kind::Object)
        fatal(what, ": expected object, got ", kindName(kind_));
    return object_;
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asNumber(key) : fallback;
}

std::string
JsonValue::stringOr(std::string_view key, std::string_view fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asString(key) : std::string(fallback);
}

JsonValue
JsonValue::parse(std::string_view text, std::string_view what)
{
    return JsonParser(text, what).document();
}

JsonValue
JsonValue::parseFile(const std::string &path, std::string_view what)
{
    const std::optional<std::string> text = readArtifactFile(path);
    if (!text)
        fatal(what, ": cannot read '", path, "'");
    return parse(*text, what);
}

} // namespace wss::util
