// Hostile-bytes suite for the persist codec (mirrors tests/test_frame_fuzz.cc
// for the wire framing): every truncation of a snapshot blob, a seeded sweep
// of single-byte mutations, version/kind/flags skew, and journal tail damage.
// The snapshot sweeps cover both per-mode state layouts (exact: N x C
// schedule; mean-field: N row totals), framed and as raw payloads.
// The contract under test: corruption is always detected (throw, or the
// journal's `truncated` flag for record-level damage) and never crashes --
// CI runs this under ASan/UBSan.
#include "persist/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "persist/journal.h"
#include "persist/snapshot.h"
#include "util/rng.h"

namespace olev::persist {
namespace {

struct TempPath {
  explicit TempPath(const std::string& name)
      : path(::testing::TempDir() + "olev_persist_fuzz_" + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

ServiceSnapshot sample_snapshot() {
  ServiceSnapshot snapshot;
  snapshot.engine.mode = 0;
  snapshot.engine.players = 4;
  snapshot.engine.sections = 3;
  snapshot.engine.epsilon = 1e-7;
  snapshot.engine.caps_kw = {40.0, 40.0, 40.0, 40.0};
  snapshot.engine.state_kw.assign(12, 1.25);
  snapshot.engine.updates = 9;
  snapshot.engine.residual = 0.5;
  snapshot.bound_players = {0, 1, 3};
  return snapshot;
}

/// The same shape in mean-field mode: one row total per player.
ServiceSnapshot mean_field_snapshot() {
  ServiceSnapshot snapshot = sample_snapshot();
  snapshot.engine.mode = 1;
  snapshot.engine.state_kw = {3.75, 0.0, 120.0, 1.0 / 3.0};
  snapshot.engine.total_load_kw = 3.75 + 120.0 + 1.0 / 3.0;
  return snapshot;
}

std::vector<std::uint8_t> sample_blob() {
  return encode_blob(BlobKind::kSnapshot, encode(sample_snapshot()));
}

/// Framed blobs of both state layouts, exact first.
std::vector<std::vector<std::uint8_t>> layout_blobs() {
  return {sample_blob(),
          encode_blob(BlobKind::kSnapshot, encode(mean_field_snapshot()))};
}

void write_raw(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  }
  ASSERT_EQ(std::fclose(file), 0);
}

// --- snapshot blob: truncation, mutation, skew -------------------------------

TEST(PersistFuzz, EveryTruncationOfASnapshotBlobIsRejected) {
  for (const std::vector<std::uint8_t>& blob : layout_blobs()) {
    // The intact blob decodes; every strict prefix must throw -- the header
    // prefixes from the header fields alone, the payload prefixes from the
    // length/CRC check.
    EXPECT_NO_THROW((void)decode(decode_blob(BlobKind::kSnapshot, blob)));
    for (std::size_t length = 0; length < blob.size(); ++length) {
      EXPECT_THROW((void)decode_blob(BlobKind::kSnapshot,
                                     std::span(blob).first(length)),
                   std::runtime_error)
          << "prefix of " << length << " bytes decoded";
    }
  }
}

TEST(PersistFuzz, EverySingleByteMutationIsRejected) {
  util::Rng rng(2024);
  for (const std::vector<std::uint8_t>& blob : layout_blobs()) {
    for (std::size_t offset = 0; offset < blob.size(); ++offset) {
      std::vector<std::uint8_t> mutated = blob;
      // A random non-identity XOR: every byte of the blob participates in
      // either the magic check or the CRC, so any flip must be caught.
      const auto flip = static_cast<std::uint8_t>(
          1 + static_cast<std::uint8_t>(rng.uniform(0.0, 254.0)));
      mutated[offset] ^= flip;
      EXPECT_THROW((void)decode_blob(BlobKind::kSnapshot, mutated),
                   std::runtime_error)
          << "mutation at offset " << offset << " (xor "
          << static_cast<int>(flip) << ") decoded";
    }
  }
}

// --- snapshot payload: the decoder behind the CRC ---------------------------

TEST(PersistFuzz, EveryTruncationOfASnapshotPayloadIsRejected) {
  // Past the CRC, decode() itself must refuse a short payload in either
  // layout: every field is length-checked, and a trailing field missing is
  // an underrun, never a default.
  for (const ServiceSnapshot& snapshot :
       {sample_snapshot(), mean_field_snapshot()}) {
    const std::vector<std::uint8_t> payload = encode(snapshot);
    EXPECT_EQ(decode(payload), snapshot);
    for (std::size_t length = 0; length < payload.size(); ++length) {
      EXPECT_THROW((void)decode(std::span(payload).first(length)),
                   std::runtime_error)
          << "payload prefix of " << length << " bytes decoded";
    }
  }
}

TEST(PersistFuzz, PayloadMutationsDecodeToAConsistentLayoutOrThrow) {
  // An unframed payload has no CRC, so a flipped byte inside a double can
  // decode.  What must never happen is a decode whose state disagrees with
  // its own mode and shape (or a crash: CI runs this under ASan/UBSan).
  util::Rng rng(77);
  for (const ServiceSnapshot& snapshot :
       {sample_snapshot(), mean_field_snapshot()}) {
    const std::vector<std::uint8_t> payload = encode(snapshot);
    for (std::size_t offset = 0; offset < payload.size(); ++offset) {
      std::vector<std::uint8_t> mutated = payload;
      mutated[offset] ^= static_cast<std::uint8_t>(
          1 + static_cast<std::uint8_t>(rng.uniform(0.0, 254.0)));
      try {
        const ServiceSnapshot decoded = decode(mutated);
        const EngineSnapshot& engine = decoded.engine;
        const std::uint64_t per_player = engine.mode == 1 ? 1 : engine.sections;
        EXPECT_EQ(engine.state_kw.size(), engine.players * per_player)
            << "mutation at offset " << offset;
        EXPECT_EQ(engine.caps_kw.size(), engine.players);
      } catch (const std::runtime_error&) {
        // Rejected: the other acceptable outcome.
      }
    }
  }
}

TEST(PersistFuzz, StateLayoutMustMatchTheMode) {
  // A mean-field snapshot carrying the N x C matrix is rejected...
  ServiceSnapshot matrix = mean_field_snapshot();
  matrix.engine.state_kw.assign(12, 1.25);
  EXPECT_THROW((void)decode(encode(matrix)), std::runtime_error);
  // ... and so is an exact snapshot carrying only N totals.
  ServiceSnapshot totals = sample_snapshot();
  totals.engine.state_kw.assign(4, 1.25);
  EXPECT_THROW((void)decode(encode(totals)), std::runtime_error);
  // Flipping the mode byte (the payload's first) of an otherwise valid
  // snapshot leaves a layout the other mode cannot accept.
  for (const ServiceSnapshot& snapshot :
       {sample_snapshot(), mean_field_snapshot()}) {
    std::vector<std::uint8_t> payload = encode(snapshot);
    payload[0] ^= 1;
    EXPECT_THROW((void)decode(payload), std::runtime_error);
  }
  // A shape whose players * sections wraps 2^64 to the state's size must
  // not slip through: 4 players x 2^62 sections "is" 0 cells.
  ServiceSnapshot wrapped = sample_snapshot();
  wrapped.engine.sections = 1ull << 62;
  wrapped.engine.state_kw.clear();
  EXPECT_THROW((void)decode(encode(wrapped)), std::runtime_error);
}

TEST(PersistFuzz, RandomGarbageNeverDecodes) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto size =
        static_cast<std::size_t>(rng.uniform(0.0, 512.0));
    std::vector<std::uint8_t> garbage(size);
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.uniform(0.0, 255.999));
    }
    EXPECT_THROW((void)decode_blob(BlobKind::kSnapshot, garbage),
                 std::runtime_error);
  }
}

TEST(PersistFuzz, VersionSkewIsRejectedBeforeThePayload) {
  std::vector<std::uint8_t> blob = sample_blob();
  // Bump the version and fix the CRC so ONLY the version check can reject:
  // a future format must not be misparsed as version 1.
  const std::uint16_t future = kCodecVersion + 1;
  std::memcpy(blob.data() + 8, &future, sizeof(future));
  const std::uint32_t crc = crc32(std::span(blob).subspan(8));
  std::memcpy(blob.data() + 4, &crc, sizeof(crc));
  EXPECT_THROW((void)decode_blob(BlobKind::kSnapshot, blob),
               std::runtime_error);
}

TEST(PersistFuzz, ReservedFlagsMustBeZero) {
  std::vector<std::uint8_t> blob = sample_blob();
  blob[11] = 0x01;
  const std::uint32_t crc = crc32(std::span(blob).subspan(8));
  std::memcpy(blob.data() + 4, &crc, sizeof(crc));
  EXPECT_THROW((void)decode_blob(BlobKind::kSnapshot, blob),
               std::runtime_error);
}

TEST(PersistFuzz, OversizedLengthClaimRejectedFromTheHeaderAlone) {
  // 20 header bytes claiming a 63 MiB payload, no payload present: the
  // decode must reject from the length/size mismatch without allocating.
  std::vector<std::uint8_t> blob = sample_blob();
  blob.resize(kBlobHeaderBytes);
  const std::uint64_t claim = 63ull << 20;
  std::memcpy(blob.data() + 12, &claim, sizeof(claim));
  const std::uint32_t crc = crc32(std::span(blob).subspan(8));
  std::memcpy(blob.data() + 4, &crc, sizeof(crc));
  EXPECT_THROW((void)decode_blob(BlobKind::kSnapshot, blob),
               std::runtime_error);
}

TEST(PersistFuzz, MutatedSnapshotFileFailsToLoad) {
  TempPath file("snapshot_mutated.bin");
  save(file.path, sample_snapshot());
  std::vector<std::uint8_t> bytes = read_file(file.path);
  util::Rng rng(99);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> mutated = bytes;
    const auto offset =
        static_cast<std::size_t>(rng.uniform(0.0, double(bytes.size()) - 0.001));
    mutated[offset] ^= 0x40;
    write_raw(file.path, mutated);
    EXPECT_THROW((void)load(file.path), std::runtime_error)
        << "mutation at offset " << offset << " loaded";
  }
}

// --- journal: header damage throws, tail damage truncates --------------------

std::vector<std::uint8_t> build_journal(const std::string& path,
                                        std::uint64_t records) {
  JournalHeader header;
  header.players = 4;
  header.sections = 3;
  header.epsilon = 1e-9;
  header.caps_kw = {40.0, 40.0, 40.0, 40.0};
  JournalWriter writer(path, header, FsyncPolicy::kNone);
  for (std::uint64_t i = 0; i < records; ++i) {
    JournalRecord record;
    record.ts_us = static_cast<std::int64_t>(i);
    record.player = static_cast<std::uint32_t>(i % 4);
    record.round = i;
    record.total_kw = static_cast<double>(i) * 1.5;
    record.trace_id = i + 1;
    writer.append(record);
  }
  writer.flush();
  return read_file(path);
}

TEST(PersistFuzz, JournalTornTailIsToleratedAtEveryTruncationPoint) {
  TempPath file("journal_torn.bin");
  const std::vector<std::uint8_t> bytes = build_journal(file.path, 10);
  const std::size_t header_bytes = bytes.size() - 10 * kJournalRecordBytes;

  for (std::size_t length = 0; length <= bytes.size(); ++length) {
    write_raw(file.path, std::span(bytes).first(length));
    if (length < header_bytes) {
      // Nothing can be replayed without the engine shape: header damage
      // is a hard error, exactly like a corrupt snapshot.
      EXPECT_THROW((void)read_journal(file.path), std::runtime_error)
          << "journal with " << length << " bytes parsed";
    } else {
      // The torn-tail case a write-ahead log exists for: every intact
      // record survives, the partial one is flagged, nothing throws.
      const JournalData data = read_journal(file.path);
      const std::size_t whole = (length - header_bytes) / kJournalRecordBytes;
      EXPECT_EQ(data.records.size(), whole) << "at length " << length;
      EXPECT_EQ(data.truncated, (length - header_bytes) % kJournalRecordBytes != 0)
          << "at length " << length;
      for (std::size_t i = 0; i < data.records.size(); ++i) {
        EXPECT_EQ(data.records[i].round, i);
      }
    }
  }
}

TEST(PersistFuzz, JournalRecordMutationTruncatesAtTheDamage) {
  TempPath file("journal_mutated.bin");
  const std::vector<std::uint8_t> bytes = build_journal(file.path, 10);
  const std::size_t header_bytes = bytes.size() - 10 * kJournalRecordBytes;

  // Flip one byte inside record 6: records 0..5 survive, the rest are cut
  // (order is the contract -- replay cannot skip a damaged record).
  std::vector<std::uint8_t> mutated = bytes;
  mutated[header_bytes + 6 * kJournalRecordBytes + 17] ^= 0x80;
  write_raw(file.path, mutated);
  const JournalData data = read_journal(file.path);
  EXPECT_TRUE(data.truncated);
  ASSERT_EQ(data.records.size(), 6u);
  for (std::size_t i = 0; i < data.records.size(); ++i) {
    EXPECT_EQ(data.records[i].round, i);
  }
}

TEST(PersistFuzz, JournalHeaderMutationIsAHardError) {
  TempPath file("journal_header_mutated.bin");
  const std::vector<std::uint8_t> bytes = build_journal(file.path, 4);
  const std::size_t header_bytes = bytes.size() - 4 * kJournalRecordBytes;
  util::Rng rng(5);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<std::uint8_t> mutated = bytes;
    const auto offset = static_cast<std::size_t>(
        rng.uniform(0.0, double(header_bytes) - 0.001));
    mutated[offset] ^= 0x20;
    write_raw(file.path, mutated);
    EXPECT_THROW((void)read_journal(file.path), std::runtime_error)
        << "header mutation at offset " << offset << " parsed";
  }
}

}  // namespace
}  // namespace olev::persist
