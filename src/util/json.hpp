/**
 * @file
 * Minimal JSON document parser (stdlib only).
 *
 * The repo's one JSON reader. flow::SwitchProfile::fromJson,
 * obs::RunManifest::loadJsonFile and the `wss report` subcommand all
 * read documents written by earlier runs through this tiny DOM:
 * parse a whole document into a JsonValue tree and navigate it with
 * find()/as*().
 *
 * Deliberately small: no serialization (writers keep emitting JSON by
 * hand at max_digits10, as everywhere else in the repo), no comments,
 * no trailing commas — exactly RFC 8259 minus \u surrogate pairs
 * (escaped \uXXXX below 0x80 decodes; anything higher is preserved
 * verbatim as its escape text, which is lossless for reporting).
 * Malformed input, including a number that overflows a double, is a
 * user error: fatal(), never UB.
 */

#ifndef WSS_UTIL_JSON_HPP
#define WSS_UTIL_JSON_HPP

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wss::util {

/**
 * One node of a parsed JSON document.
 *
 * Object members keep their file order (writers in this repo emit
 * sorted keys where determinism matters, so order-preservation makes
 * round-trip comparisons meaningful).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Object, Array };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    /// Member lookup; nullptr when absent or not an object.
    const JsonValue *find(std::string_view key) const;

    /// find() that fatal()s when the member is missing. @p what names
    /// the document in the error message.
    const JsonValue &require(std::string_view key,
                             std::string_view what) const;

    /// Typed accessors; fatal() on kind mismatch (@p what for context).
    bool asBool(std::string_view what) const;
    double asNumber(std::string_view what) const;
    const std::string &asString(std::string_view what) const;
    const std::vector<JsonValue> &asArray(std::string_view what) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    asObject(std::string_view what) const;

    /// Convenience: member @p key as number/string, or @p fallback
    /// when the member is absent (kind mismatch still fatal()s).
    double numberOr(std::string_view key, double fallback) const;
    std::string stringOr(std::string_view key,
                         std::string_view fallback) const;

    /**
     * Parse one complete document from @p text; trailing non-space
     * characters and malformed input fatal() with @p what and the
     * byte offset of the problem.
     */
    static JsonValue parse(std::string_view text, std::string_view what);

    /// parse() on the contents of @p path; fatal() when unreadable.
    static JsonValue parseFile(const std::string &path,
                               std::string_view what);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<std::pair<std::string, JsonValue>> object_;
    std::vector<JsonValue> array_;
};

} // namespace wss::util

#endif // WSS_UTIL_JSON_HPP
