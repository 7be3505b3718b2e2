#include "util/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace sparsepipe {

namespace {

/** @return true when text has a leading minus (after whitespace). */
bool
startsNegative(const std::string &text)
{
    std::size_t i = 0;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    return i < text.size() && text[i] == '-';
}

} // anonymous namespace

bool
tryParseI64(const std::string &text, long long &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(text.c_str(), &end, 0);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = value;
    return true;
}

bool
tryParseU64(const std::string &text, unsigned long long &out)
{
    if (text.empty() || startsNegative(text))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = value;
    return true;
}

bool
tryParseF64(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        !std::isfinite(value))
        return false;
    out = value;
    return true;
}

StatusOr<long long>
parseI64Flag(const char *flag, const std::string &text, long long lo,
             long long hi)
{
    long long value = 0;
    if (!tryParseI64(text, value))
        return invalidInput("flag %s wants an integer, got '%s'",
                            flag, text.c_str());
    if (value < lo && hi == std::numeric_limits<long long>::max())
        return invalidInput("flag %s wants an integer >= %lld, got "
                            "'%s'", flag, lo, text.c_str());
    if (value < lo || value > hi)
        return invalidInput(
            "flag %s wants an integer in [%lld, %lld], got '%s'", flag,
            lo, hi, text.c_str());
    return value;
}

StatusOr<unsigned long long>
parseU64Flag(const char *flag, const std::string &text)
{
    unsigned long long value = 0;
    if (!tryParseU64(text, value))
        return invalidInput(
            "flag %s wants a non-negative integer, got '%s'", flag,
            text.c_str());
    return value;
}

StatusOr<double>
parseF64Flag(const char *flag, const std::string &text, double lo,
             double hi)
{
    double value = 0.0;
    if (!tryParseF64(text, value))
        return invalidInput("flag %s wants a number, got '%s'", flag,
                            text.c_str());
    if (value < lo || value > hi)
        return invalidInput(
            "flag %s wants a number in [%g, %g], got '%s'", flag, lo,
            hi, text.c_str());
    return value;
}

namespace {

/** Strictly-decimal port in [0, 65535] ("08080" is fine, "0x1f90"
 *  and "-1" are not — base-0 integer parsing would accept hex and
 *  octal forms nobody writes in a listen address). */
bool
tryParsePort(const std::string &text, int &out)
{
    if (text.empty() || text.size() > 5)
        return false;
    long value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + (c - '0');
    }
    if (value > 65535)
        return false;
    out = static_cast<int>(value);
    return true;
}

/** Dotted-quad IPv4 literal: four decimal octets in [0, 255]. */
bool
isIpv4Literal(const std::string &host)
{
    int octets = 0;
    std::size_t i = 0;
    while (i < host.size()) {
        std::size_t start = i;
        long value = 0;
        while (i < host.size() && host[i] >= '0' && host[i] <= '9') {
            value = value * 10 + (host[i] - '0');
            if (value > 255)
                return false;
            ++i;
        }
        if (i == start || i - start > 3)
            return false; // empty or over-long octet
        ++octets;
        if (i == host.size())
            break;
        if (host[i] != '.' || octets == 4)
            return false;
        ++i; // skip '.'
        if (i == host.size())
            return false; // trailing '.'
    }
    return octets == 4;
}

} // anonymous namespace

StatusOr<ListenAddress>
parseListenAddress(const std::string &text)
{
    if (text.empty())
        return invalidInput("listen address is empty");

    ListenAddress addr;
    std::string port_text;
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos) {
        port_text = text; // bare "port"
    } else {
        if (text.find(':', colon + 1) != std::string::npos)
            return invalidInput(
                "listen address '%s' has more than one ':'",
                text.c_str());
        if (colon > 0)
            addr.host = text.substr(0, colon);
        port_text = text.substr(colon + 1);
    }

    if (port_text.empty())
        return invalidInput("listen address '%s' has no port",
                            text.c_str());
    if (!tryParsePort(port_text, addr.port))
        return invalidInput(
            "listen address '%s' wants a decimal port in "
            "[0, 65535], got '%s'",
            text.c_str(), port_text.c_str());
    if (addr.host != "localhost" && !isIpv4Literal(addr.host))
        return invalidInput(
            "listen address '%s' wants a dotted-quad IPv4 host or "
            "'localhost', got '%s'",
            text.c_str(), addr.host.c_str());
    return addr;
}

} // namespace sparsepipe
