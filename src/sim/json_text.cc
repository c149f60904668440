#include "sim/json_text.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ssmt
{
namespace sim
{

namespace
{

/** Deepest container nesting parseJson accepts. Our own documents
 *  nest at most 8 levels (golden/ 2, results/ manifests and store
 *  entries 5, machine snapshots 8); the cap bounds the parser's
 *  recursion (and the tree's recursive destruction) far below what a
 *  worker thread's stack holds, so hostile input fails instead of
 *  overflowing it. */
constexpr size_t kMaxJsonDepth = 256;

struct Parser
{
    const std::string &text;
    size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            pos++;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        pos++;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                break;
            char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; i++) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // Our emitters only escape control characters; emit
                // the code point as UTF-8 for completeness.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        bool negative = false;
        bool integral = true;
        if (pos < text.size() && text[pos] == '-') {
            negative = true;
            pos++;
        }
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
            pos++;
        }
        if (pos < text.size() &&
            (text[pos] == '.' || text[pos] == 'e' ||
             text[pos] == 'E')) {
            integral = false;
            while (pos < text.size() &&
                   (std::isdigit(
                        static_cast<unsigned char>(text[pos])) ||
                    text[pos] == '.' || text[pos] == 'e' ||
                    text[pos] == 'E' || text[pos] == '+' ||
                    text[pos] == '-')) {
                pos++;
            }
        }
        if (pos == start + (negative ? 1u : 0u))
            return fail("malformed number");
        std::string token = text.substr(start, pos - start);
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(token.c_str(), nullptr);
        if (integral && !negative) {
            // A literal beyond uint64_t range saturates strtoull at
            // ULLONG_MAX with errno == ERANGE; keep only the double
            // view then, so u64() takes its checked-fallback path
            // instead of returning a silently wrapped value.
            errno = 0;
            uint64_t parsed =
                std::strtoull(token.c_str(), nullptr, 10);
            if (errno != ERANGE) {
                out.isInteger = true;
                out.integer = parsed;
            }
        }
        return true;
    }

    /** @p depth counts the containers enclosing this value. */
    bool
    parseValue(JsonValue &out, size_t depth)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of document");
        char c = text[pos];
        if ((c == '{' || c == '[') && depth >= kMaxJsonDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxJsonDepth) + " levels");
        if (c == '{') {
            pos++;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                pos++;
                return true;
            }
            for (;;) {
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return false;
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.members.emplace_back(std::move(key),
                                         std::move(member));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    pos++;
                    skipWs();
                    continue;
                }
                return consume('}');
            }
        }
        if (c == '[') {
            pos++;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                pos++;
                return true;
            }
            for (;;) {
                JsonValue item;
                if (!parseValue(item, depth + 1))
                    return false;
                out.items.push_back(std::move(item));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    pos++;
                    continue;
                }
                return consume(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (text.compare(pos, 4, "true") == 0) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            pos += 5;
            return true;
        }
        if (text.compare(pos, 4, "null") == 0) {
            out.kind = JsonValue::Kind::Null;
            pos += 4;
            return true;
        }
        return parseNumber(out);
    }
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &member : members)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

uint64_t
JsonValue::u64(const std::string &key, uint64_t fallback) const
{
    const JsonValue *v = find(key);
    if (!v || v->kind != Kind::Number)
        return fallback;
    if (v->isInteger)
        return v->integer;
    // Converting a double outside [0, 2^64) (or NaN) to uint64_t is
    // undefined behavior, not a wrap: range-check first and treat
    // unrepresentable values like a missing field.
    if (!std::isfinite(v->number) || v->number < 0.0 ||
        v->number >= 18446744073709551616.0) {
        return fallback;
    }
    return static_cast<uint64_t>(v->number);
}

std::string
JsonValue::str(const std::string &key) const
{
    const JsonValue *v = find(key);
    return v && v->kind == Kind::String ? v->text : std::string();
}

bool
parseJson(const std::string &text, JsonValue &out, std::string *err)
{
    Parser parser{text, 0, {}};
    out = JsonValue{};
    if (!parser.parseValue(out, 0)) {
        if (err)
            *err = parser.error;
        return false;
    }
    parser.skipWs();
    if (parser.pos != text.size()) {
        if (err)
            *err = "trailing content at offset " +
                   std::to_string(parser.pos);
        return false;
    }
    return true;
}

void
appendJsonEscaped(std::string &out, const std::string &text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

} // namespace sim
} // namespace ssmt
