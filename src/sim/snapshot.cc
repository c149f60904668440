/**
 * @file
 * The canonical JSON writer and reader, and the program hash.
 */

#include "sim/snapshot.hh"

#include <cassert>
#include <charconv>

#include "isa/program.hh"
#include "sim/json_text.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace ssmt
{
namespace sim
{

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

namespace
{

void
appendU64(std::string &out, uint64_t value)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/** Start a line indented two spaces per level. */
void
appendNewline(std::string &out, int depth)
{
    out += '\n';
    out.append(2 * depth, ' ');
}

} // namespace

SnapshotWriter::SnapshotWriter(Layout layout)
    : spaced_(layout == Layout::Spaced)
{
    out_.reserve(4096);
}

void
SnapshotWriter::clear()
{
    out_.clear();
    depth_ = 0;
}

void
SnapshotWriter::separator()
{
    if (depth_ == 0)
        return;
    Scope &scope = scopes_[depth_ - 1];
    if (scope.first)
        scope.first = false;
    else
        out_ += (scope.lines || !spaced_) ? "," : ", ";
    if (scope.lines)
        appendNewline(out_, depth_);
}

void
SnapshotWriter::emitKey(const char *key)
{
    assert(depth_ > 0 && scopes_[depth_ - 1].close == '}');
    separator();
    out_ += '"';
    out_ += key;
    out_ += spaced_ ? "\": " : "\":";
}

void
SnapshotWriter::open(char bracket, bool lines)
{
    SSMT_ASSERT(depth_ < kMaxDepth, "JSON document nests too deep");
    out_ += bracket;
    scopes_[depth_++] = {bracket == '{' ? '}' : ']', lines, true};
}

void
SnapshotWriter::close(char bracket)
{
    assert(depth_ > 0 && scopes_[depth_ - 1].close == bracket);
    bool lines = scopes_[--depth_].lines;
    if (lines)
        appendNewline(out_, depth_);
    out_ += bracket;
    if (lines && depth_ == 0)
        out_ += '\n';
}

void
SnapshotWriter::beginObject(bool lines)
{
    separator();
    open('{', lines);
}

void
SnapshotWriter::beginObject(const char *key, bool lines)
{
    emitKey(key);
    open('{', lines);
}

void
SnapshotWriter::endObject()
{
    close('}');
}

void
SnapshotWriter::beginArray(const char *key, bool lines)
{
    emitKey(key);
    open('[', lines);
}

void
SnapshotWriter::endArray()
{
    close(']');
}

void
SnapshotWriter::u64(uint64_t value)
{
    assert(depth_ > 0 && scopes_[depth_ - 1].close == ']');
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
SnapshotWriter::str(std::string_view value)
{
    assert(depth_ > 0 && scopes_[depth_ - 1].close == ']');
    separator();
    out_ += '"';
    appendJsonEscaped(out_, value);
    out_ += '"';
}

void
SnapshotWriter::str(const char *key, std::string_view value)
{
    emitKey(key);
    out_ += '"';
    appendJsonEscaped(out_, value);
    out_ += '"';
}

void
SnapshotWriter::u64Array(const char *key, const std::vector<uint64_t> &v)
{
    beginArray(key);
    for (uint64_t value : v)
        u64(value);
    endArray();
}

const std::string &
SnapshotWriter::text() const
{
    assert(depth_ == 0 && "unbalanced writer scopes");
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
                       "malformed document: " + err);
    }
    if (root_.kind != JsonValue::Kind::Object)
        fail("document root is not an object");
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
        fail(std::string("missing key '") + key + "'");
    return *v;
}

void
SnapshotReader::enter(const char *key)
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Object)
        fail(std::string("key '") + key + "' is not an object");
    stack_.push_back(&v);
}

size_t
SnapshotReader::enterArray(const char *key)
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Array)
        fail(std::string("key '") + key + "' is not an array");
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
        fail("leave() below the document root");
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
        fail(std::string("key '") + key +
             "' is not an exact integer");
    return v.integer;
}

bool
SnapshotReader::boolean(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Bool)
        fail(std::string("key '") + key + "' is not a bool");
    return v.boolean;
}

std::string
SnapshotReader::str(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::String)
        fail(std::string("key '") + key + "' is not a string");
    return v.text;
}

std::vector<std::string>
SnapshotReader::strArray(const char *key) const
{
    const JsonValue &v = member(key);
    if (v.kind != JsonValue::Kind::Array)
        fail(std::string("key '") + key + "' is not an array");
    std::vector<std::string> out;
    out.reserve(v.items.size());
    for (const JsonValue &item : v.items) {
        if (item.kind != JsonValue::Kind::String)
            fail(std::string("array '") + key +
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
        fail(std::string("key '") + key + "' is not an array");
    std::vector<uint64_t> out;
    out.reserve(v.items.size());
    for (const JsonValue &item : v.items) {
        if (item.kind != JsonValue::Kind::Number || !item.isInteger)
            fail(std::string("array '") + key +
                 "' holds a non-integer element");
        out.push_back(item.integer);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Program hash
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

} // namespace sim
} // namespace ssmt
