#include "io/binary_io.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "base/bytes.h"
#include "base/status.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace io {

namespace {

constexpr uint32_t kMagic = 0x4e424843;  // "CHBN"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kSnapshotMagic = 0x49534843;  // "CHSI"
// Version 2 added the content fingerprint to the payload header.
constexpr uint32_t kSnapshotVersion = 2;
constexpr uint32_t kCheckpointMagic = 0x4b434843;  // "CHCK"
// Version 2 dropped the parallel engine's two diagnostic counters
// (prefiltered triggers, peak buffered homomorphisms) from the payload.
constexpr uint32_t kCheckpointVersion = 2;
// ChaseVariant has three enumerators (chase/chase_engine.h); the
// deserializer range-checks against this so a resume never reinterprets a
// corrupt variant byte as a different chase.
constexpr uint32_t kNumChaseVariants = 3;

uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The shared artifact envelope: magic | version | payload size | checksum.
std::vector<uint8_t> WrapPayload(uint32_t magic, uint32_t version,
                                 const ByteWriter& payload) {
  ByteWriter out;
  out.PutU32(magic);
  out.PutU32(version);
  out.PutU64(payload.bytes().size());
  out.PutU64(Fnv1a(payload.bytes()));
  std::vector<uint8_t> result = out.Take();
  result.insert(result.end(), payload.bytes().begin(), payload.bytes().end());
  return result;
}

// Validates the envelope and returns the checksummed payload span.
StatusOr<std::span<const uint8_t>> UnwrapPayload(
    uint32_t magic, uint32_t version, std::span<const uint8_t> bytes,
    const char* what) {
  ByteReader header(bytes);
  CHASE_ASSIGN_OR_RETURN(uint32_t got_magic, header.GetU32());
  if (got_magic != magic) {
    return FailedPreconditionError(std::string("not a ") + what +
                                   " (bad magic)");
  }
  CHASE_ASSIGN_OR_RETURN(uint32_t got_version, header.GetU32());
  if (got_version != version) {
    return FailedPreconditionError(std::string("unsupported ") + what +
                                   " version " + std::to_string(got_version));
  }
  CHASE_ASSIGN_OR_RETURN(uint64_t payload_size, header.GetU64());
  CHASE_ASSIGN_OR_RETURN(uint64_t checksum, header.GetU64());
  if (header.remaining() != payload_size) {
    return OutOfRangeError(std::string(what) + " payload truncated");
  }
  std::span<const uint8_t> payload =
      bytes.subspan(bytes.size() - payload_size);
  if (Fnv1a(payload) != checksum) {
    return FailedPreconditionError(std::string(what) + " checksum mismatch");
  }
  return payload;
}

Status WriteFileBytes(std::span<const uint8_t> bytes,
                      const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return InternalError("cannot create file: " + path);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !closed) {
    return InternalError("short write: " + path);
  }
  return OkStatus();
}

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError("cannot open file: " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
  if (read != bytes.size()) {
    return InternalError("short read: " + path);
  }
  return bytes;
}

void PutAtoms(ByteWriter* writer, const std::vector<RuleAtom>& atoms) {
  writer->PutU32(static_cast<uint32_t>(atoms.size()));
  for (const RuleAtom& atom : atoms) {
    writer->PutU32(atom.pred);
    std::vector<uint32_t> args(atom.args.begin(), atom.args.end());
    writer->PutU32Span(args);
  }
}

StatusOr<std::vector<RuleAtom>> GetAtoms(ByteReader* reader,
                                         const Schema& schema) {
  CHASE_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
  std::vector<RuleAtom> atoms;
  atoms.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CHASE_ASSIGN_OR_RETURN(uint32_t pred, reader->GetU32());
    if (pred >= schema.NumPredicates()) {
      return FailedPreconditionError("atom references unknown predicate");
    }
    CHASE_ASSIGN_OR_RETURN(std::vector<uint32_t> args, reader->GetU32Span());
    if (args.size() != schema.Arity(pred)) {
      return FailedPreconditionError("atom arity mismatch");
    }
    atoms.emplace_back(pred, std::vector<VarId>(args.begin(), args.end()));
  }
  return atoms;
}

}  // namespace

std::vector<uint8_t> SerializeProgram(const Schema& schema,
                                      const Database& database,
                                      const std::vector<Tgd>& tgds) {
  ByteWriter payload;
  // Schema.
  payload.PutU32(static_cast<uint32_t>(schema.NumPredicates()));
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    payload.PutString(schema.PredicateName(pred));
    payload.PutU32(schema.Arity(pred));
  }
  // Constants.
  payload.PutU32(static_cast<uint32_t>(database.NumNamedConstants()));
  for (uint32_t id = 0; id < database.NumNamedConstants(); ++id) {
    payload.PutString(database.ConstantName(id));
  }
  payload.PutU64(database.NumConstants());
  // Facts.
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    payload.PutU32Span(database.Tuples(pred));
  }
  // TGDs.
  payload.PutU32(static_cast<uint32_t>(tgds.size()));
  for (const Tgd& tgd : tgds) {
    PutAtoms(&payload, tgd.body());
    PutAtoms(&payload, tgd.head());
  }

  return WrapPayload(kMagic, kVersion, payload);
}

StatusOr<Program> DeserializeProgram(std::span<const uint8_t> bytes) {
  CHASE_ASSIGN_OR_RETURN(
      std::span<const uint8_t> payload,
      UnwrapPayload(kMagic, kVersion, bytes, "chase binary program"));

  ByteReader reader(payload);
  Program program;
  CHASE_ASSIGN_OR_RETURN(uint32_t num_preds, reader.GetU32());
  for (uint32_t i = 0; i < num_preds; ++i) {
    CHASE_ASSIGN_OR_RETURN(std::string name, reader.GetString());
    CHASE_ASSIGN_OR_RETURN(uint32_t arity, reader.GetU32());
    CHASE_ASSIGN_OR_RETURN(PredId pred,
                           program.schema->AddPredicate(name, arity));
    if (pred != i) return InternalError("predicate id mismatch");
  }
  CHASE_ASSIGN_OR_RETURN(uint32_t num_named, reader.GetU32());
  for (uint32_t i = 0; i < num_named; ++i) {
    CHASE_ASSIGN_OR_RETURN(std::string name, reader.GetString());
    program.database->InternConstant(name);
  }
  CHASE_ASSIGN_OR_RETURN(uint64_t domain, reader.GetU64());
  program.database->EnsureAnonymousDomain(domain);
  for (PredId pred = 0; pred < num_preds; ++pred) {
    CHASE_ASSIGN_OR_RETURN(std::vector<uint32_t> tuples,
                           reader.GetU32Span());
    const uint32_t arity = program.schema->Arity(pred);
    if (tuples.size() % arity != 0) {
      return FailedPreconditionError("relation payload not arity-strided");
    }
    for (size_t row = 0; row * arity < tuples.size(); ++row) {
      CHASE_RETURN_IF_ERROR(program.database->AddFact(
          pred, std::span<const uint32_t>(tuples).subspan(row * arity,
                                                          arity)));
    }
  }
  CHASE_ASSIGN_OR_RETURN(uint32_t num_tgds, reader.GetU32());
  program.tgds.reserve(num_tgds);
  for (uint32_t i = 0; i < num_tgds; ++i) {
    CHASE_ASSIGN_OR_RETURN(std::vector<RuleAtom> body,
                           GetAtoms(&reader, *program.schema));
    CHASE_ASSIGN_OR_RETURN(std::vector<RuleAtom> head,
                           GetAtoms(&reader, *program.schema));
    CHASE_ASSIGN_OR_RETURN(Tgd tgd,
                           Tgd::Create(std::move(body), std::move(head)));
    program.tgds.push_back(std::move(tgd));
  }
  if (!reader.AtEnd()) {
    return FailedPreconditionError("trailing bytes after program payload");
  }
  return program;
}

Status SaveProgram(const Schema& schema, const Database& database,
                   const std::vector<Tgd>& tgds, const std::string& path) {
  return WriteFileBytes(SerializeProgram(schema, database, tgds), path);
}

StatusOr<Program> LoadProgram(const std::string& path) {
  CHASE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return DeserializeProgram(bytes);
}

// ---------------------------------------------------------------------------
// Shape-index snapshots.

std::vector<uint8_t> SerializeShapeSnapshot(const ShapeSnapshot& snapshot) {
  ByteWriter payload;
  payload.PutU32(snapshot.num_shards);
  payload.PutU64(snapshot.fingerprint);
  payload.PutU64(snapshot.counts.size());
  for (const ShapeCount& entry : snapshot.counts) {
    payload.PutU32(entry.shape.pred);
    payload.PutU8(static_cast<uint8_t>(entry.shape.id.size()));
    for (uint8_t v : entry.shape.id) payload.PutU8(v);
    payload.PutU64(entry.count);
  }
  return WrapPayload(kSnapshotMagic, kSnapshotVersion, payload);
}

StatusOr<ShapeSnapshot> DeserializeShapeSnapshot(
    std::span<const uint8_t> bytes) {
  CHASE_ASSIGN_OR_RETURN(
      std::span<const uint8_t> payload,
      UnwrapPayload(kSnapshotMagic, kSnapshotVersion, bytes,
                    "chase shape snapshot"));

  ByteReader reader(payload);
  ShapeSnapshot snapshot;
  CHASE_ASSIGN_OR_RETURN(snapshot.num_shards, reader.GetU32());
  // Writers only produce shard counts in [1, kMaxSnapshotShards]; loading
  // stays equally strict so a load/save round-trip never rewrites the
  // header (canonical bytes).
  if (snapshot.num_shards == 0 ||
      snapshot.num_shards > kMaxSnapshotShards) {
    return FailedPreconditionError(
        "shape snapshot shard count out of range: " +
        std::to_string(snapshot.num_shards));
  }
  CHASE_ASSIGN_OR_RETURN(snapshot.fingerprint, reader.GetU64());
  CHASE_ASSIGN_OR_RETURN(uint64_t num_entries, reader.GetU64());
  snapshot.counts.reserve(
      std::min<uint64_t>(num_entries, reader.remaining() / 2));
  for (uint64_t i = 0; i < num_entries; ++i) {
    ShapeCount entry;
    CHASE_ASSIGN_OR_RETURN(entry.shape.pred, reader.GetU32());
    CHASE_ASSIGN_OR_RETURN(uint8_t arity, reader.GetU8());
    entry.shape.id.resize(arity);
    uint8_t max_id = 0;
    for (uint8_t j = 0; j < arity; ++j) {
      CHASE_ASSIGN_OR_RETURN(entry.shape.id[j], reader.GetU8());
      // id-tuples are restricted-growth strings: id[0] == 1 and each value
      // is at most one past the running maximum.
      if (entry.shape.id[j] == 0 || entry.shape.id[j] > max_id + 1) {
        return FailedPreconditionError(
            "shape snapshot entry is not a restricted-growth string");
      }
      max_id = std::max(max_id, entry.shape.id[j]);
    }
    CHASE_ASSIGN_OR_RETURN(entry.count, reader.GetU64());
    if (entry.count == 0) {
      return FailedPreconditionError("shape snapshot entry has zero count");
    }
    if (!snapshot.counts.empty() &&
        !(snapshot.counts.back().shape < entry.shape)) {
      return FailedPreconditionError("shape snapshot entries out of order");
    }
    snapshot.counts.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return FailedPreconditionError("trailing bytes after snapshot payload");
  }
  return snapshot;
}

Status SaveShapeSnapshot(const ShapeSnapshot& snapshot,
                         const std::string& path) {
  return WriteFileBytes(SerializeShapeSnapshot(snapshot), path);
}

StatusOr<ShapeSnapshot> LoadShapeSnapshot(const std::string& path) {
  CHASE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return DeserializeShapeSnapshot(bytes);
}

// ---------------------------------------------------------------------------
// Chase checkpoints.

uint64_t ProgramFingerprint(const Schema& schema, const Database& database,
                            const std::vector<Tgd>& tgds) {
  return Fnv1a(SerializeProgram(schema, database, tgds));
}

std::vector<uint8_t> SerializeChaseCheckpoint(
    const ChaseCheckpoint& checkpoint) {
  ByteWriter payload;
  payload.PutU32(checkpoint.variant);
  payload.PutU64(checkpoint.input_fingerprint);
  payload.PutU64(checkpoint.rounds);
  payload.PutU64(checkpoint.triggers_fired);
  payload.PutU64(checkpoint.next_null);
  payload.PutU32(static_cast<uint32_t>(checkpoint.relations.size()));
  for (const ChaseCheckpoint::Relation& relation : checkpoint.relations) {
    payload.PutU32(relation.arity);
    payload.PutU64(relation.prev);
    payload.PutU64(relation.cur);
    payload.PutU64(relation.atoms.size() / relation.arity);  // row count
    for (Term term : relation.atoms) payload.PutU64(term);
  }
  payload.PutU64(checkpoint.fired_keys.size());
  for (const std::vector<uint64_t>& key : checkpoint.fired_keys) {
    payload.PutU32(static_cast<uint32_t>(key.size()));
    for (uint64_t value : key) payload.PutU64(value);
  }
  return WrapPayload(kCheckpointMagic, kCheckpointVersion, payload);
}

StatusOr<ChaseCheckpoint> DeserializeChaseCheckpoint(
    std::span<const uint8_t> bytes) {
  CHASE_ASSIGN_OR_RETURN(
      std::span<const uint8_t> payload,
      UnwrapPayload(kCheckpointMagic, kCheckpointVersion, bytes,
                    "chase checkpoint"));

  ByteReader reader(payload);
  ChaseCheckpoint checkpoint;
  CHASE_ASSIGN_OR_RETURN(checkpoint.variant, reader.GetU32());
  if (checkpoint.variant >= kNumChaseVariants) {
    return FailedPreconditionError(
        "chase checkpoint variant out of range: " +
        std::to_string(checkpoint.variant));
  }
  CHASE_ASSIGN_OR_RETURN(checkpoint.input_fingerprint, reader.GetU64());
  CHASE_ASSIGN_OR_RETURN(checkpoint.rounds, reader.GetU64());
  CHASE_ASSIGN_OR_RETURN(checkpoint.triggers_fired, reader.GetU64());
  CHASE_ASSIGN_OR_RETURN(checkpoint.next_null, reader.GetU64());
  CHASE_ASSIGN_OR_RETURN(uint32_t num_relations, reader.GetU32());
  checkpoint.relations.reserve(
      std::min<uint64_t>(num_relations, reader.remaining()));
  for (uint32_t i = 0; i < num_relations; ++i) {
    ChaseCheckpoint::Relation relation;
    CHASE_ASSIGN_OR_RETURN(relation.arity, reader.GetU32());
    if (relation.arity == 0 || relation.arity > Schema::kMaxArity) {
      return FailedPreconditionError(
          "chase checkpoint relation arity out of range: " +
          std::to_string(relation.arity));
    }
    CHASE_ASSIGN_OR_RETURN(relation.prev, reader.GetU64());
    CHASE_ASSIGN_OR_RETURN(relation.cur, reader.GetU64());
    CHASE_ASSIGN_OR_RETURN(uint64_t rows, reader.GetU64());
    if (relation.prev > relation.cur || relation.cur > rows) {
      return FailedPreconditionError(
          "chase checkpoint round window past the relation row count");
    }
    // Validate against the remaining length before sizing the buffer, so
    // an adversarial row count cannot force a huge allocation.
    if (rows > reader.remaining() / sizeof(uint64_t) / relation.arity) {
      return OutOfRangeError("chase checkpoint relation truncated");
    }
    relation.atoms.resize(rows * relation.arity);
    for (Term& term : relation.atoms) {
      CHASE_ASSIGN_OR_RETURN(term, reader.GetU64());
    }
    checkpoint.relations.push_back(std::move(relation));
  }
  CHASE_ASSIGN_OR_RETURN(uint64_t num_keys, reader.GetU64());
  checkpoint.fired_keys.reserve(
      std::min<uint64_t>(num_keys, reader.remaining()));
  for (uint64_t i = 0; i < num_keys; ++i) {
    CHASE_ASSIGN_OR_RETURN(uint32_t key_size, reader.GetU32());
    if (key_size == 0) {
      return FailedPreconditionError("chase checkpoint fired key is empty");
    }
    if (key_size > reader.remaining() / sizeof(uint64_t)) {
      return OutOfRangeError("chase checkpoint fired keys truncated");
    }
    std::vector<uint64_t> key(key_size);
    for (uint64_t& value : key) {
      CHASE_ASSIGN_OR_RETURN(value, reader.GetU64());
    }
    // Strictly ascending keeps checkpoint bytes canonical for a state and
    // makes duplicates impossible by construction.
    if (!checkpoint.fired_keys.empty() &&
        !(checkpoint.fired_keys.back() < key)) {
      return FailedPreconditionError(
          "chase checkpoint fired keys out of order");
    }
    checkpoint.fired_keys.push_back(std::move(key));
  }
  if (!reader.AtEnd()) {
    return FailedPreconditionError(
        "trailing bytes after checkpoint payload");
  }
  return checkpoint;
}

Status SaveChaseCheckpoint(const ChaseCheckpoint& checkpoint,
                           const std::string& path) {
  // Write-temp-then-rename: rename(2) within a filesystem is atomic, so
  // `path` always holds either the previous complete checkpoint or the new
  // one — never a torn mix, whatever signal or crash lands mid-write.
  const std::string tmp = path + ".tmp";
  CHASE_RETURN_IF_ERROR(
      WriteFileBytes(SerializeChaseCheckpoint(checkpoint), tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError("cannot rename " + tmp + " to " + path);
  }
  return OkStatus();
}

StatusOr<ChaseCheckpoint> LoadChaseCheckpoint(const std::string& path) {
  CHASE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return DeserializeChaseCheckpoint(bytes);
}

}  // namespace io
}  // namespace chase
