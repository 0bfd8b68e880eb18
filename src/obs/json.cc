#include "obs/json.hh"

#include <cctype>
#include <cstdio>

namespace fdip
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

namespace
{

/** Cursor over the text being validated. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    bool atEnd() const { return pos >= text.size(); }

    char
    peek() const
    {
        return atEnd() ? '\0' : text[pos];
    }

    void
    skipWs()
    {
        while (!atEnd()) {
            char c = text[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos;
            else
                break;
        }
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (atEnd() || text[pos] != *p)
                return fail(std::string("expected '") + word + "'");
            ++pos;
        }
        return true;
    }

    bool
    string()
    {
        if (peek() != '"')
            return fail("expected string");
        ++pos;
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            unsigned char c = static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c == '\\') {
                ++pos;
                if (atEnd())
                    return fail("truncated escape");
                char e = text[pos];
                if (e == '"' || e == '\\' || e == '/' || e == 'b' ||
                    e == 'f' || e == 'n' || e == 'r' || e == 't') {
                    ++pos;
                } else if (e == 'u') {
                    ++pos;
                    for (int i = 0; i < 4; ++i, ++pos) {
                        if (atEnd() || !std::isxdigit(static_cast<unsigned char>(
                                           text[pos])))
                            return fail("bad \\u escape");
                    }
                } else {
                    return fail("bad escape character");
                }
            } else {
                ++pos;
            }
        }
    }

    bool
    number()
    {
        if (peek() == '-')
            ++pos;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("expected digit");
        if (peek() == '0') {
            ++pos;
        } else {
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos;
        }
        if (peek() == '.') {
            ++pos;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("expected fraction digit");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("expected exponent digit");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos;
        }
        return true;
    }

    bool
    value()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return fail("expected ':'");
            ++pos;
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (peek() == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

bool
jsonValidate(const std::string &text, std::string *error)
{
    Parser p{text, 0, {}};
    bool ok = p.value();
    if (ok) {
        p.skipWs();
        if (!p.atEnd()) {
            ok = false;
            p.fail("trailing garbage");
        }
    }
    if (!ok && error != nullptr)
        *error = p.error;
    return ok;
}

} // namespace fdip
