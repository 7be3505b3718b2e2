#include "serve/protocol.hh"

#include <cmath>
#include <sstream>

#include "backend/backend.hh"
#include "obs/json.hh"
#include "util/parse.hh"

namespace sparsepipe::serve {

namespace {

using obs::JsonValue;

/**
 * Fetch an integer member ("n" or a strict numeric string).  A JSON
 * number must lie within +-2^53, where doubles still hold every
 * integer.
 */
Status
readInt(const JsonValue &obj, const char *key, long long &out)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return okStatus();
    if (v->isNumber()) {
        if (v->number != std::floor(v->number))
            return invalidInput("field '%s' wants an integer", key);
        if (std::fabs(v->number) > 0x1p53)
            return invalidInput(
                "field '%s' wants an integer within +-2^53", key);
        out = static_cast<long long>(v->number);
        return okStatus();
    }
    if (v->isString() && tryParseI64(v->string, out))
        return okStatus();
    return invalidInput("field '%s' wants an integer", key);
}

Status
readU64(const JsonValue &obj, const char *key, std::uint64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return okStatus();
    // Seeds are conventionally hex, which JSON numbers cannot spell,
    // so a string value ("0x5eed") is the first-class form.
    if (v->isString()) {
        unsigned long long parsed = 0;
        if (!tryParseU64(v->string, parsed))
            return invalidInput(
                "field '%s' wants an unsigned integer", key);
        out = parsed;
        return okStatus();
    }
    if (v->isNumber() && v->number >= 0 && v->number < 0x1p64 &&
        v->number == std::floor(v->number)) {
        out = static_cast<std::uint64_t>(v->number);
        return okStatus();
    }
    return invalidInput("field '%s' wants an unsigned integer", key);
}

Status
readString(const JsonValue &obj, const char *key, std::string &out)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return okStatus();
    if (!v->isString())
        return invalidInput("field '%s' wants a string", key);
    out = v->string;
    return okStatus();
}

Status
readBool(const JsonValue &obj, const char *key, bool &out)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return okStatus();
    if (v->kind != JsonValue::Kind::Bool)
        return invalidInput("field '%s' wants a boolean", key);
    out = v->boolean;
    return okStatus();
}

StatusOr<StatusCode>
statusCodeFromName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(StatusCode::Internal);
         ++i) {
        const auto code = static_cast<StatusCode>(i);
        if (name == statusCodeName(code))
            return code;
    }
    return invalidInput("unknown status code '%s'", name.c_str());
}

} // anonymous namespace

StatusOr<Request>
parseRequest(const std::string &line)
{
    JsonValue doc;
    std::string error;
    if (!obs::parseJson(line, doc, &error))
        return invalidInput("request is not valid JSON: %s",
                            error.c_str());
    if (!doc.isObject())
        return invalidInput("request wants a JSON object");

    Request req;
    std::string op = "run";
    if (Status s = readString(doc, "op", op); !s.ok())
        return s;
    if (op == "ping")
        req.op = Request::Op::Ping;
    else if (op == "run")
        req.op = Request::Op::Run;
    else
        return invalidInput("unknown op '%s'", op.c_str());

    if (Status s = readString(doc, "id", req.id); !s.ok())
        return s;
    if (req.op == Request::Op::Ping)
        return req;

    if (Status s = readString(doc, "app", req.app); !s.ok())
        return s;
    if (Status s = readString(doc, "dataset", req.dataset); !s.ok())
        return s;
    if (req.dataset.empty())
        return invalidInput("run request names no dataset");

    std::string reorder = "vanilla";
    if (Status s = readString(doc, "reorder", reorder); !s.ok())
        return s;
    if (reorder == "none")
        req.reorder = ReorderKind::None;
    else if (reorder == "vanilla")
        req.reorder = ReorderKind::Vanilla;
    else if (reorder == "locality")
        req.reorder = ReorderKind::Locality;
    else
        return invalidInput("unknown reorder '%s'", reorder.c_str());

    std::string iso = "gpu";
    if (Status s = readString(doc, "iso", iso); !s.ok())
        return s;
    if (iso == "cpu")
        req.iso_cpu = true;
    else if (iso == "gpu")
        req.iso_cpu = false;
    else
        return invalidInput("unknown iso target '%s'", iso.c_str());

    if (Status s = readInt(doc, "iters", req.iters); !s.ok())
        return s;
    if (req.iters < 0)
        return invalidInput("field 'iters' wants a count >= 0");
    if (Status s = readInt(doc, "deadline_ms", req.deadline_ms);
        !s.ok())
        return s;
    if (Status s = readInt(doc, "buffer_kb", req.buffer_kb); !s.ok())
        return s;
    if (req.buffer_kb < 0)
        return invalidInput("field 'buffer_kb' wants a size >= 0");
    // explore's buffer_kb bound: the byte count cannot overflow.
    if (req.buffer_kb > (1 << 20))
        return invalidInput("field 'buffer_kb' wants a size <= %d",
                            1 << 20);
    if (Status s = readU64(doc, "seed", req.seed); !s.ok())
        return s;
    if (Status s = readBool(doc, "blocked", req.blocked); !s.ok())
        return s;
    if (Status s = readString(doc, "backend", req.backend); !s.ok())
        return s;
    // Validate against the backend registry so a typo comes back as
    // InvalidInput listing the registered names.
    if (StatusOr<backend::BackendKind> kind =
            backend::backendFromName(req.backend);
        !kind.ok())
        return kind.status();
    return req;
}

std::string
encodeRequest(const Request &req)
{
    std::ostringstream out;
    out << "{\"op\":\""
        << (req.op == Request::Op::Ping ? "ping" : "run") << "\"";
    if (!req.id.empty())
        out << ",\"id\":\"" << obs::jsonEscape(req.id) << "\"";
    if (req.op == Request::Op::Ping) {
        out << "}";
        return out.str();
    }
    out << ",\"app\":\"" << obs::jsonEscape(req.app) << "\""
        << ",\"dataset\":\"" << obs::jsonEscape(req.dataset) << "\""
        << ",\"reorder\":\"" << reorderKindName(req.reorder) << "\"";
    if (req.iters != 0)
        out << ",\"iters\":" << req.iters;
    if (req.deadline_ms != 0)
        out << ",\"deadline_ms\":" << req.deadline_ms;
    if (req.buffer_kb != 0)
        out << ",\"buffer_kb\":" << req.buffer_kb;
    if (req.iso_cpu)
        out << ",\"iso\":\"cpu\"";
    if (!req.blocked)
        out << ",\"blocked\":false";
    if (req.backend != "sparsepipe")
        out << ",\"backend\":\"" << obs::jsonEscape(req.backend)
            << "\"";
    char seed[32];
    std::snprintf(seed, sizeof seed, "0x%llx",
                  static_cast<unsigned long long>(req.seed));
    out << ",\"seed\":\"" << seed << "\"}";
    return out.str();
}

std::string
encodeResponse(const Response &resp)
{
    std::ostringstream out;
    out << "{\"id\":\"" << obs::jsonEscape(resp.id) << "\",\"ok\":"
        << (resp.status.ok() ? "true" : "false");
    if (resp.status.ok()) {
        out << ",\"coalesced\":"
            << (resp.coalesced ? "true" : "false")
            << ",\"cycles\":" << resp.cycles
            << ",\"nnz\":" << resp.nnz << ",\"elapsed_us\":"
            << obs::jsonNumber(resp.elapsed_us);
    } else {
        out << ",\"code\":\"" << statusCodeName(resp.status.code())
            << "\",\"error\":\""
            << obs::jsonEscape(resp.status.message()) << "\"";
        // Shed responses carry their backoff hint; deadline and
        // cancellation failures carry an explicit 0 so a client can
        // distinguish "retry now with a fresh budget" from
        // admission-shed backoff (and from terminal errors, which
        // omit the field entirely).
        const StatusCode code = resp.status.code();
        if (resp.retry_after_ms > 0) {
            out << ",\"retry_after_ms\":" << resp.retry_after_ms;
        } else if (code == StatusCode::DeadlineExceeded ||
                   code == StatusCode::Cancelled) {
            out << ",\"retry_after_ms\":0";
        }
    }
    out << "}";
    return out.str();
}

StatusOr<Response>
parseResponse(const std::string &line)
{
    JsonValue doc;
    std::string error;
    if (!obs::parseJson(line, doc, &error))
        return invalidInput("response is not valid JSON: %s",
                            error.c_str());
    if (!doc.isObject())
        return invalidInput("response wants a JSON object");

    Response resp;
    if (Status s = readString(doc, "id", resp.id); !s.ok())
        return s;
    bool ok = false;
    if (Status s = readBool(doc, "ok", ok); !s.ok())
        return s;
    if (ok) {
        if (Status s = readBool(doc, "coalesced", resp.coalesced);
            !s.ok())
            return s;
        if (Status s = readInt(doc, "cycles", resp.cycles); !s.ok())
            return s;
        if (Status s = readInt(doc, "nnz", resp.nnz); !s.ok())
            return s;
        if (const JsonValue *v = doc.find("elapsed_us");
            v && v->isNumber())
            resp.elapsed_us = v->number;
        return resp;
    }
    std::string code_name = "internal";
    std::string message;
    if (Status s = readString(doc, "code", code_name); !s.ok())
        return s;
    if (Status s = readString(doc, "error", message); !s.ok())
        return s;
    StatusOr<StatusCode> code = statusCodeFromName(code_name);
    if (!code.ok())
        return code.status();
    resp.status = Status(*code, message);
    if (Status s =
            readInt(doc, "retry_after_ms", resp.retry_after_ms);
        !s.ok())
        return s;
    return resp;
}

std::string
coalesceKey(const Request &req)
{
    std::ostringstream key;
    key << req.app << '|' << req.dataset << '|'
        << reorderKindName(req.reorder) << '|' << req.iters << '|'
        << req.seed << '|' << req.buffer_kb << '|'
        << (req.iso_cpu ? "cpu" : "gpu") << '|'
        << (req.blocked ? "b1" : "b0") << '|' << req.backend;
    return key.str();
}

} // namespace sparsepipe::serve
