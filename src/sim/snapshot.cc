/**
 * @file
 * ssmt-snapshot-v1 encoder/decoder and the whole-machine envelope.
 */

#include "sim/snapshot.hh"

#include <cassert>

#include "cpu/ssmt_core.hh"
#include "isa/program.hh"
#include "sim/json_text.hh"
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"

namespace ssmt
{
namespace sim
{

const char kSnapshotSchema[] = "ssmt-snapshot-v1";

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

namespace
{

void
appendU64(std::string &out, uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += buf;
}

constexpr char kHexDigits[] = "0123456789abcdef";

} // namespace

SnapshotWriter::SnapshotWriter()
{
    out_.reserve(4096);
}

void
SnapshotWriter::separator()
{
    if (scopes_.empty())
        return;
    if (first_.back())
        first_.back() = false;
    else
        out_ += ',';
}

void
SnapshotWriter::emitKey(const char *key)
{
    assert(!scopes_.empty() && scopes_.back() == '{');
    separator();
    out_ += '"';
    out_ += key;
    out_ += "\":";
}

void
SnapshotWriter::beginObject()
{
    separator();
    out_ += '{';
    scopes_.push_back('{');
    first_.push_back(true);
}

void
SnapshotWriter::beginObject(const char *key)
{
    emitKey(key);
    out_ += '{';
    scopes_.push_back('{');
    first_.push_back(true);
}

void
SnapshotWriter::endObject()
{
    assert(!scopes_.empty() && scopes_.back() == '{');
    out_ += '}';
    scopes_.pop_back();
    first_.pop_back();
}

void
SnapshotWriter::beginArray()
{
    separator();
    out_ += '[';
    scopes_.push_back('[');
    first_.push_back(true);
}

void
SnapshotWriter::beginArray(const char *key)
{
    emitKey(key);
    out_ += '[';
    scopes_.push_back('[');
    first_.push_back(true);
}

void
SnapshotWriter::endArray()
{
    assert(!scopes_.empty() && scopes_.back() == '[');
    out_ += ']';
    scopes_.pop_back();
    first_.pop_back();
}

void
SnapshotWriter::u64(uint64_t value)
{
    assert(!scopes_.empty() && scopes_.back() == '[');
    separator();
    appendU64(out_, value);
}

void
SnapshotWriter::u64(const char *key, uint64_t value)
{
    emitKey(key);
    appendU64(out_, value);
}

void
SnapshotWriter::boolean(const char *key, bool value)
{
    emitKey(key);
    out_ += value ? "true" : "false";
}

void
SnapshotWriter::str(const std::string &value)
{
    assert(!scopes_.empty() && scopes_.back() == '[');
    separator();
    out_ += '"';
    appendJsonEscaped(out_, value);
    out_ += '"';
}

void
SnapshotWriter::str(const char *key, const std::string &value)
{
    emitKey(key);
    out_ += '"';
    appendJsonEscaped(out_, value);
    out_ += '"';
}

void
SnapshotWriter::u64Array(const char *key, const uint64_t *data, size_t n)
{
    beginArray(key);
    for (size_t i = 0; i < n; i++)
        u64(data[i]);
    endArray();
}

void
SnapshotWriter::u64Array(const char *key, const std::vector<uint64_t> &v)
{
    u64Array(key, v.data(), v.size());
}

void
SnapshotWriter::hexWords(const char *key, const uint64_t *words, size_t n)
{
    emitKey(key);
    out_ += '"';
    for (size_t i = 0; i < n; i++) {
        uint64_t w = words[i];
        // Little-endian byte order, two hex digits per byte.
        for (int b = 0; b < 8; b++) {
            uint8_t byte = static_cast<uint8_t>(w >> (8 * b));
            out_ += kHexDigits[byte >> 4];
            out_ += kHexDigits[byte & 0xf];
        }
    }
    out_ += '"';
}

const std::string &
SnapshotWriter::text() const
{
    assert(scopes_.empty() && "unbalanced snapshot writer scopes");
    return out_;
}

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

SnapshotReader::SnapshotReader(const std::string &text)
{
    std::string err;
    if (!parseJson(text, root_, &err)) {
        throw SimError(ErrorCode::ParseError, "snapshot",
                       "malformed snapshot document: " + err);
    }
    if (root_.kind != JsonValue::Kind::Object)
        fail("snapshot root is not an object");
    stack_.push_back(&root_);
}

void
SnapshotReader::fail(const std::string &what) const
{
    throw SimError(ErrorCode::ParseError, "snapshot", what);
}

const JsonValue &
SnapshotReader::cur() const
{
    assert(!stack_.empty());
    return *stack_.back();
}

const JsonValue &
SnapshotReader::member(const char *key) const
{
    if (cur().kind != JsonValue::Kind::Object)
        fail(std::string("expected an object around key '") + key + "'");
    const JsonValue *v = cur().find(key);
    if (!v)
        fail(std::string("missing snapshot key '") + key + "'");
    return *v;
}

void
SnapshotReader::enter(const char *key)
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Object)
        fail(std::string("snapshot key '") + key + "' is not an object");
    stack_.push_back(&v);
}

size_t
SnapshotReader::enterArray(const char *key)
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Array)
        fail(std::string("snapshot key '") + key + "' is not an array");
    stack_.push_back(&v);
    return v.items.size();
}

void
SnapshotReader::enterItem(size_t i)
{
    if (cur().kind != JsonValue::Kind::Array)
        fail("enterItem outside an array");
    if (i >= cur().items.size())
        fail("array item index out of range");
    stack_.push_back(&cur().items[i]);
}

void
SnapshotReader::leave()
{
    if (stack_.size() <= 1)
        fail("leave() below the snapshot root");
    stack_.pop_back();
}

bool
SnapshotReader::has(const char *key) const
{
    return cur().kind == JsonValue::Kind::Object &&
           cur().find(key) != nullptr;
}

uint64_t
SnapshotReader::u64(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Number || !v.isInteger)
        fail(std::string("snapshot key '") + key +
             "' is not an exact integer");
    return v.integer;
}

bool
SnapshotReader::boolean(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Bool)
        fail(std::string("snapshot key '") + key + "' is not a bool");
    return v.boolean;
}

std::string
SnapshotReader::str(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::String)
        fail(std::string("snapshot key '") + key + "' is not a string");
    return v.text;
}

std::vector<std::string>
SnapshotReader::strArray(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Array)
        fail(std::string("snapshot key '") + key + "' is not an array");
    std::vector<std::string> out;
    out.reserve(v.items.size());
    for (const JsonValue &item : v.items) {
        if (item.kind != JsonValue::Kind::String)
            fail(std::string("snapshot array '") + key +
                 "' holds a non-string element");
        out.push_back(item.text);
    }
    return out;
}

std::vector<uint64_t>
SnapshotReader::u64Array(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Array)
        fail(std::string("snapshot key '") + key + "' is not an array");
    std::vector<uint64_t> out;
    out.reserve(v.items.size());
    for (const JsonValue &item : v.items) {
        if (item.kind != JsonValue::Kind::Number || !item.isInteger)
            fail(std::string("snapshot array '") + key +
                 "' holds a non-integer element");
        out.push_back(item.integer);
    }
    return out;
}

void
SnapshotReader::u64ArrayInto(const char *key, uint64_t *out,
                             size_t n) const
{
    std::vector<uint64_t> v = u64Array(key);
    requireSize(key, v.size(), n);
    for (size_t i = 0; i < n; i++)
        out[i] = v[i];
}

void
SnapshotReader::hexWords(const char *key, uint64_t *words,
                         size_t n) const
{
    const std::string hex = str(key);
    requireSize(key, hex.size(), n * 16);
    auto nibble = [&](char c) -> uint64_t {
        if (c >= '0' && c <= '9')
            return static_cast<uint64_t>(c - '0');
        if (c >= 'a' && c <= 'f')
            return static_cast<uint64_t>(c - 'a' + 10);
        fail(std::string("snapshot key '") + key +
             "' holds a non-hex character");
    };
    for (size_t i = 0; i < n; i++) {
        uint64_t w = 0;
        for (int b = 0; b < 8; b++) {
            const size_t at = i * 16 + static_cast<size_t>(b) * 2;
            const uint64_t byte =
                (nibble(hex[at]) << 4) | nibble(hex[at + 1]);
            w |= byte << (8 * b);
        }
        words[i] = w;
    }
}

void
SnapshotReader::requireSize(const char *what, size_t got,
                            size_t want) const
{
    if (got != want) {
        fail(std::string("snapshot field '") + what + "' has " +
             std::to_string(got) +
             " elements where the configured geometry needs " +
             std::to_string(want) +
             " (snapshot taken under a different config?)");
    }
}

// ---------------------------------------------------------------------------
// Envelope: program hash, whole-machine save/restore
// ---------------------------------------------------------------------------

uint64_t
programHash(const isa::Program &prog)
{
    // FNV-1a over the code stream and the initial data image.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int b = 0; b < 8; b++) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const isa::Inst &inst : prog.code()) {
        mix(static_cast<uint64_t>(inst.op));
        mix((static_cast<uint64_t>(inst.rd) << 16) |
            (static_cast<uint64_t>(inst.rs1) << 8) |
            static_cast<uint64_t>(inst.rs2));
        mix(static_cast<uint64_t>(inst.imm));
    }
    for (const isa::DataInit &init : prog.data()) {
        mix(init.addr);
        mix(init.value);
    }
    return h;
}

std::string
writeMachineSnapshot(const cpu::SsmtCore &core, const isa::Program &prog,
                     const MachineConfig &config,
                     const std::string &label)
{
    SnapshotWriter w;
    w.beginObject();
    w.str("schema", kSnapshotSchema);
    w.str("label", label);
    w.str("program", prog.name());
    w.u64("programHash", programHash(prog));
    w.str("configFingerprint", configFingerprint(config));
    w.str("mode", modeName(config.mode));
    w.u64("cycle", core.cycle());
    w.beginObject("machine");
    core.save(w);
    w.endObject();
    w.endObject();
    return w.text();
}

void
restoreMachineSnapshot(cpu::SsmtCore &core, const isa::Program &prog,
                       const MachineConfig &config,
                       const std::string &text)
{
    SnapshotReader r(text);
    const std::string schema = r.str("schema");
    if (schema != kSnapshotSchema) {
        throw SimError(ErrorCode::ParseError, "snapshot",
                       "unsupported snapshot schema '" + schema +
                           "' (this build reads " + kSnapshotSchema +
                           ")");
    }
    const std::string snapProg = r.str("program");
    if (snapProg != prog.name() ||
        r.u64("programHash") != programHash(prog)) {
        throw SimError(ErrorCode::ConfigInvalid, "snapshot",
                       "snapshot was captured from program '" +
                           snapProg + "', which does not match '" +
                           prog.name() + "'");
    }
    const std::string fp = r.str("configFingerprint");
    if (fp != configFingerprint(config)) {
        throw SimError(
            ErrorCode::ConfigInvalid, "snapshot",
            "snapshot config fingerprint does not match the current "
            "machine config (only mode / run-control / observability "
            "knobs may differ across a restore)");
    }
    r.enter("machine");
    core.restore(r);
    r.leave();
}

uint64_t
snapshotCycle(const std::string &text)
{
    SnapshotReader r(text);
    return r.u64("cycle");
}

std::string
snapshotLabel(const std::string &text)
{
    SnapshotReader r(text);
    return r.str("label");
}

} // namespace sim
} // namespace ssmt
