// Write-ahead campaign log: crash-safe persistence of per-section
// injection campaigns at experiment granularity.
//
// Each section instance gets one append-only segment file. Every completed
// experiment is appended as a length-prefixed, checksummed record before
// the campaign moves on, so a crash (OOM, eviction, kill -9) loses at most
// the experiments still in flight. When the section's campaign finishes,
// the sensitivity result and a seal record are appended and the segment is
// fsynced — a sealed segment is a complete substitute for re-injecting the
// section.
//
// Segment layout:
//
//	header   magic "FFWAL" + format version, section content key (32 bytes),
//	         campaign config fingerprint (8 bytes)
//	records  u32 payload length, u32 CRC-32C of payload, payload
//
// Record payloads start with a one-byte type: experiment (class key,
// outcome, optional co-run final outcome, per-experiment cost counters),
// amplification (the section's sensitivity matrix and its cost), and seal
// (the total experiment count, for validation).
//
// Recovery reads records until the first torn or corrupt one — a length
// that overruns the file, or a checksum mismatch — and truncates the file
// there, reporting how many bytes were dropped. A torn tail is therefore
// detected and discarded, never silently merged. A header that fails
// validation (unknown version, different section key or fingerprint)
// invalidates the whole segment: the file is recreated fresh.
//
// All segment I/O flows through the errfs seam, so chaos tests can
// inject EIO/ENOSPC/short writes/failed fsyncs at chosen records.
// Transient write failures are retried under a capped jittered backoff
// (RetryPolicy); a partial append is truncated back to the last good
// record before the retry so the file never accumulates a mid-stream
// tear. A persistent failure latches the segment into a degraded state
// (ErrWALDegraded): further appends are refused immediately, the
// campaign finishes memory-only for this section, and the next section
// re-arms the log by opening a fresh segment.
package inject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"fastflip/internal/errfs"
	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
)

// walMagic identifies a WAL segment and its format version. Bump the
// version byte on any incompatible format change; old segments are then
// discarded rather than misparsed.
var walMagic = [8]byte{'F', 'F', 'W', 'A', 'L', 0, 0, 2}

// walHeaderSize is the fixed segment header: magic, section key,
// campaign fingerprint.
const walHeaderSize = len(walMagic) + 32 + 8

// Record payload types.
const (
	walRecExperiment = byte(1)
	walRecAmp        = byte(2)
	walRecSeal       = byte(3)
	walRecPoison     = byte(4)
	walRecShard      = byte(5)
)

// maxPoisonStack bounds the stack trace stored in a poison record.
const maxPoisonStack = 8 << 10

// ErrWALDegraded marks a section WAL that hit a persistent write failure
// and latched itself off. Appends return it immediately; the analysis
// continues memory-only for the section and the campaign reports
// Summary.WALDegraded instead of aborting.
var ErrWALDegraded = errors.New("inject: wal degraded")

// maxWALPayload bounds a single record so a corrupt length prefix cannot
// trigger a huge allocation during recovery.
const maxWALPayload = 1 << 24

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALRecord is one logged experiment: the equivalence class injected, its
// outcome(s), and the cost the engine accounted for it.
type WALRecord struct {
	Key sites.ClassKey
	Out metrics.Outcome
	// Fin is the co-run end-to-end outcome; nil outside co-run campaigns.
	Fin *metrics.Outcome
	// Cost is this experiment's share of the campaign stats
	// (Cost.Experiments is always 1).
	Cost Stats
}

// WALAmp is the logged sensitivity result of a completed section.
type WALAmp struct {
	K         [][]float64
	Runs      int
	SimInstrs uint64
}

// WALPoison is the logged quarantine of an experiment that panicked on
// both attempts: its class, how often it was tried, a fingerprint of the
// experiment machine at the second panic, and the captured stack.
type WALPoison struct {
	Key       sites.ClassKey
	Attempts  int
	MachineFP uint64
	Stack     string
}

// WALShard is the provenance of one merged shard: which worker executed a
// range of the campaign's dyn-sorted experiment order, under which lease
// epoch, and how many records it delivered. Coordinators append one per
// merged shard stream so `fasm -wal-info` can attribute a campaign's
// records to the fleet that produced them.
type WALShard struct {
	// Worker is the self-reported ID of the remote injector.
	Worker string
	// Epoch is the lease epoch the shard ran under; a range re-leased
	// after a worker loss carries a higher epoch than the lost lease.
	Epoch uint64
	// Lo, Hi bound the shard's dyn-order positions [Lo, Hi).
	Lo, Hi int
	// Records is the number of experiment records merged from the shard.
	Records int
}

// Recovered is what OpenSectionWAL salvaged from an existing segment.
type Recovered struct {
	// Records maps class keys to their logged experiments.
	Records map[sites.ClassKey]WALRecord
	// Amp is the logged sensitivity result, nil if the crash preceded it.
	Amp *WALAmp
	// Poisoned holds the quarantine diagnostics of experiments that
	// panicked twice in a previous run. They carry no outcome: resume
	// re-executes their classes.
	Poisoned []WALPoison
	// Shards holds the provenance records of shards merged by a
	// distributed coordinator in a previous run (informational; they gate
	// nothing on resume).
	Shards []WALShard
	// Sealed reports a complete section campaign: outcomes, amplification,
	// and the seal record all present and consistent.
	Sealed bool
	// TruncatedBytes counts the torn/corrupt tail bytes dropped during
	// recovery (0 for a clean segment).
	TruncatedBytes int64

	// validSize is the byte length of the well-formed prefix, where
	// appends continue.
	validSize int64
}

// SectionWAL is an open append handle for one section's segment. Append,
// AppendAmp, AppendPoison, and Seal are safe for concurrent use by
// injection workers.
type SectionWAL struct {
	mu     sync.Mutex
	fs     errfs.FS
	retry  RetryPolicy
	f      errfs.File
	path   string
	off    int64 // end of the last well-formed record on disk
	count  int   // experiment records in the file
	sealed bool
	cause  error // non-nil once the segment degraded; latches
}

// WALOptions configure a section WAL's I/O behavior: the filesystem seam
// chaos tests inject faults through, and the retry policy for transient
// write failures. The zero value uses the real filesystem and default
// backoff.
type WALOptions struct {
	FS    errfs.FS
	Retry RetryPolicy
}

// SegmentPath returns the segment file path for a section content key.
func SegmentPath(dir string, key [32]byte) string {
	return filepath.Join(dir, fmt.Sprintf("%x.wal", key))
}

// OpenSectionWAL opens (or creates) the WAL segment for the section with
// the given content key. With resume set, an existing valid segment is
// recovered first and appends continue behind the recovered records; the
// returned Recovered reports what was salvaged and whether a torn tail was
// truncated. Without resume, or when the existing segment's header does
// not match (different format version, section key, or campaign
// fingerprint), the segment is recreated empty.
func OpenSectionWAL(dir string, key [32]byte, fingerprint uint64, resume bool) (*SectionWAL, *Recovered, error) {
	return OpenSectionWALOpts(dir, key, fingerprint, resume, WALOptions{})
}

// OpenSectionWALOpts is OpenSectionWAL with explicit I/O options.
func OpenSectionWALOpts(dir string, key [32]byte, fingerprint uint64, resume bool, opts WALOptions) (*SectionWAL, *Recovered, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = errfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("inject: wal: %w", err)
	}
	path := SegmentPath(dir, key)
	var rec *Recovered
	if resume {
		r, err := recoverSegment(fsys, path, key, fingerprint)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		rec = r
	}
	if rec == nil {
		if err := writeSegmentHeader(fsys, path, key, fingerprint); err != nil {
			return nil, nil, err
		}
		rec = &Recovered{Records: map[sites.ClassKey]WALRecord{}, validSize: int64(walHeaderSize)}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("inject: wal: %w", err)
	}
	w := &SectionWAL{
		fs:     fsys,
		retry:  opts.Retry,
		f:      f,
		path:   path,
		off:    rec.validSize,
		count:  len(rec.Records),
		sealed: rec.Sealed,
	}
	return w, rec, nil
}

// writeSegmentHeader (re)creates the segment with just a synced header.
func writeSegmentHeader(fsys errfs.FS, path string, key [32]byte, fingerprint uint64) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("inject: wal: %w", err)
	}
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic[:]...)
	hdr = append(hdr, key[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, fingerprint)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("inject: wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("inject: wal: %w", err)
	}
	return f.Close()
}

// Append logs one completed experiment. The record is durable against
// process death as soon as Append returns (it is written with a single
// write syscall); durability against machine crash is established by the
// fsync in Seal.
func (w *SectionWAL) Append(rec WALRecord) error {
	payload := appendExperimentPayload(nil, rec)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeRecord(payload); err != nil {
		return err
	}
	w.count++
	return nil
}

// AppendAmp logs the section's sensitivity result.
func (w *SectionWAL) AppendAmp(a WALAmp) error {
	payload := appendAmpPayload(nil, a)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeRecord(payload)
}

// AppendPoison logs the quarantine diagnostics of an experiment that
// panicked twice. The record carries no outcome — a resume re-executes
// the class — it preserves the stack and machine fingerprint for
// post-mortem inspection via `fasm -wal-info`.
func (w *SectionWAL) AppendPoison(p WALPoison) error {
	payload := appendPoisonPayload(nil, p)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeRecord(payload)
}

// AppendShard logs the provenance of a merged shard stream: which worker
// delivered which range of the campaign under which lease epoch. Purely
// informational — recovery collects but never validates these.
func (w *SectionWAL) AppendShard(s WALShard) error {
	payload := appendShardPayload(nil, s)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeRecord(payload)
}

// Seal marks the section campaign complete and fsyncs the segment — the
// "segment roll": after Seal returns, the section's results survive a
// machine crash, and resume will reconstruct the section without
// re-injecting anything.
func (w *SectionWAL) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	payload := []byte{walRecSeal}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(w.count))
	before := w.off
	if err := w.writeRecord(payload); err != nil {
		return err
	}
	if err := w.retry.Do(w.f.Sync); err != nil {
		// The seal record landed in the file but never reached the disk.
		// Cut it back off (best effort) so recovery sees an honest
		// unsealed segment rather than a seal with no durability behind
		// it.
		if w.fs.Truncate(w.path, before) == nil {
			w.off = before
		}
		return w.degrade(fmt.Errorf("inject: wal %s: seal sync: %w", w.path, err))
	}
	w.sealed = true
	return nil
}

// Count returns the number of experiment records in the segment
// (recovered plus appended).
func (w *SectionWAL) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Degraded reports whether the segment latched off after a persistent
// write failure.
func (w *SectionWAL) Degraded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cause != nil
}

// Close fsyncs the durable prefix and releases the file handle without
// sealing. The sync makes an interrupted campaign's records survive a
// machine crash too, and guarantees a drained service leaves no segment
// with an unflushed tail. Sync errors are swallowed: the handle is being
// released, there is nothing left to degrade.
func (w *SectionWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cause == nil {
		_ = w.f.Sync()
	}
	return w.f.Close()
}

// degrade latches the segment off and returns the wrapped sentinel.
func (w *SectionWAL) degrade(cause error) error {
	if w.cause == nil {
		w.cause = cause
	}
	return fmt.Errorf("%w: %v", ErrWALDegraded, w.cause)
}

// writeRecord frames and writes one payload under w.mu, retrying
// transient failures with backoff. A partial append is truncated back to
// the last good record before the retry, so the segment never carries a
// mid-stream tear; if that truncation itself fails, the failure is
// permanent. Once the retries are exhausted the segment degrades: the
// error is latched and every further write is refused immediately with
// ErrWALDegraded.
func (w *SectionWAL) writeRecord(payload []byte) error {
	if w.cause != nil {
		return fmt.Errorf("%w: %v", ErrWALDegraded, w.cause)
	}
	buf := make([]byte, 0, 8+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	err := w.retry.Do(func() error {
		n, werr := w.f.Write(buf)
		if werr == nil && n != len(buf) {
			werr = io.ErrShortWrite
		}
		if werr == nil {
			return nil
		}
		if n > 0 {
			// The failed write left partial bytes behind. Cut the file
			// back to the last good record so the retry appends at a
			// clean boundary; a recovery that races in meanwhile would
			// discard the fragment as a torn tail either way.
			if terr := w.fs.Truncate(w.path, w.off); terr != nil {
				return permanent(fmt.Errorf("%v (truncating partial append: %v)", werr, terr))
			}
		}
		return werr
	})
	if err != nil {
		return w.degrade(fmt.Errorf("inject: wal %s: %w", w.path, err))
	}
	w.off += int64(len(buf))
	return nil
}

// recoverSegment reads an existing segment. It returns nil (no error) when
// the header is invalid or mismatched — the segment belongs to a different
// format, section, or campaign and must be recreated. A torn or corrupt
// record tail is truncated off the file and counted in TruncatedBytes.
func recoverSegment(fsys errfs.FS, path string, key [32]byte, fingerprint uint64) (*Recovered, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < walHeaderSize {
		return nil, nil
	}
	hdr := data[:walHeaderSize]
	if string(hdr[:len(walMagic)]) != string(walMagic[:]) {
		return nil, nil
	}
	if string(hdr[len(walMagic):len(walMagic)+32]) != string(key[:]) {
		return nil, nil
	}
	if binary.LittleEndian.Uint64(hdr[len(walMagic)+32:]) != fingerprint {
		return nil, nil
	}

	rec := &Recovered{Records: map[sites.ClassKey]WALRecord{}}
	off := walHeaderSize
	valid := off // end of the last well-formed record
	sealCount := -1
	truncate := func() (*Recovered, error) {
		rec.TruncatedBytes = int64(len(data) - valid)
		rec.validSize = int64(valid)
		return rec, truncateTo(fsys, path, valid)
	}
	for {
		payload, next, ok := nextRecord(data, off)
		if !ok {
			break
		}
		typ := payload[0]
		body := payload[1:]
		switch typ {
		case walRecExperiment:
			r, perr := parseExperimentPayload(body)
			if perr != nil {
				// Structurally corrupt despite a matching checksum: stop
				// here and drop the rest of the file.
				return truncate()
			}
			rec.Records[r.Key] = r
		case walRecAmp:
			a, perr := parseAmpPayload(body)
			if perr != nil {
				return truncate()
			}
			rec.Amp = a
		case walRecPoison:
			p, perr := parsePoisonPayload(body)
			if perr != nil {
				return truncate()
			}
			rec.Poisoned = append(rec.Poisoned, p)
		case walRecShard:
			s, perr := parseShardPayload(body)
			if perr != nil {
				return truncate()
			}
			rec.Shards = append(rec.Shards, s)
		case walRecSeal:
			if len(body) == 4 {
				sealCount = int(binary.LittleEndian.Uint32(body))
			}
		}
		off = next
		valid = next
	}
	if valid < len(data) {
		return truncate()
	}
	rec.validSize = int64(valid)
	rec.Sealed = sealCount >= 0 && sealCount == len(rec.Records) && rec.Amp != nil
	return rec, nil
}

// SegmentInfo is a read-only description of one WAL segment, taken without
// validating it against any campaign (no key or fingerprint check) — the
// view `fasm -wal-info` prints when debugging a crashed campaign.
type SegmentInfo struct {
	Key         [32]byte
	Version     byte
	Fingerprint uint64
	Experiments int
	HasAmp      bool
	Sealed      bool
	// Poisoned counts quarantined-experiment records: injections that
	// panicked twice and were logged with diagnostics instead of an
	// outcome.
	Poisoned int
	// Shards holds the provenance of shard streams a distributed
	// coordinator merged into this segment: originating worker ID, lease
	// epoch, dyn-order range, and record count.
	Shards []WALShard
	// TailBytes counts trailing bytes that do not frame as complete,
	// checksummed records — the torn tail a resume would truncate.
	TailBytes int64
}

// InspectSegment reads a segment's header and record stream without
// modifying the file. Unlike recovery it accepts any section key and
// fingerprint, but still requires the magic and format version.
func InspectSegment(path string) (SegmentInfo, error) {
	var info SegmentInfo
	data, err := os.ReadFile(path)
	if err != nil {
		return info, err
	}
	if len(data) < walHeaderSize || string(data[:len(walMagic)-1]) != string(walMagic[:len(walMagic)-1]) {
		return info, fmt.Errorf("inject: wal %s: not a WAL segment", path)
	}
	info.Version = data[len(walMagic)-1]
	copy(info.Key[:], data[len(walMagic):])
	info.Fingerprint = binary.LittleEndian.Uint64(data[len(walMagic)+32:])
	if info.Version != walMagic[len(walMagic)-1] {
		return info, fmt.Errorf("inject: wal %s: unknown format version %d", path, info.Version)
	}
	off := walHeaderSize
	sealCount := -1
	for {
		payload, next, ok := nextRecord(data, off)
		if !ok {
			break
		}
		switch payload[0] {
		case walRecExperiment:
			info.Experiments++
		case walRecAmp:
			info.HasAmp = true
		case walRecPoison:
			info.Poisoned++
		case walRecShard:
			if s, perr := parseShardPayload(payload[1:]); perr == nil {
				info.Shards = append(info.Shards, s)
			}
		case walRecSeal:
			if len(payload) == 5 {
				sealCount = int(binary.LittleEndian.Uint32(payload[1:]))
			}
		}
		off = next
	}
	info.TailBytes = int64(len(data) - off)
	info.Sealed = sealCount >= 0 && sealCount == info.Experiments && info.HasAmp
	return info, nil
}

// nextRecord frames the record at off, verifying length and checksum.
func nextRecord(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+8 > len(data) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > maxWALPayload || off+8+n > len(data) {
		return nil, 0, false
	}
	payload = data[off+8 : off+8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, false
	}
	return payload, off + 8 + n, true
}

// truncateTo cuts the segment file back to its last well-formed record.
func truncateTo(fsys errfs.FS, path string, size int) error {
	if err := fsys.Truncate(path, int64(size)); err != nil {
		return fmt.Errorf("inject: wal %s: truncating torn tail: %w", path, err)
	}
	return nil
}

// --- payload encoding -------------------------------------------------

// appendClassKey encodes an equivalence-class key (the shared prefix of
// experiment and poison payloads).
func appendClassKey(buf []byte, key sites.ClassKey) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key.Static.Func)))
	buf = append(buf, key.Static.Func...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(key.Static.Local))
	buf = append(buf, byte(key.Role), key.Bit)
	return buf
}

func parseClassKey(r *walReader) (sites.ClassKey, error) {
	var key sites.ClassKey
	n, err := r.u32()
	if err != nil {
		return key, err
	}
	fn, err := r.bytes(int(n))
	if err != nil {
		return key, err
	}
	key.Static.Func = string(fn)
	local, err := r.u32()
	if err != nil {
		return key, err
	}
	key.Static.Local = int(int32(local))
	role, err := r.u8()
	if err != nil {
		return key, err
	}
	bit, err := r.u8()
	if err != nil {
		return key, err
	}
	key.Role, key.Bit = isa.OperandRole(role), bit
	return key, nil
}

func appendExperimentPayload(buf []byte, rec WALRecord) []byte {
	buf = append(buf, walRecExperiment)
	buf = appendClassKey(buf, rec.Key)
	buf = appendOutcome(buf, rec.Out)
	if rec.Fin != nil {
		buf = append(buf, 1)
		buf = appendOutcome(buf, *rec.Fin)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.SimInstrs)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.CleanInstrs)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.FaultyInstrs)
	// v2: how the experiment was executed. Elision is outcome-neutral,
	// but a resumed campaign must re-account recovered records at their
	// original cost shares so merged summaries stay identical to an
	// uninterrupted run.
	var flags byte
	if rec.Cost.ElidedExperiments > 0 {
		flags |= walFlagElided
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.ElidedInstrs)
	return buf
}

// Experiment-record execution flags (WAL format v2).
//
// Bit 1 (walFlagBatched) is retired and read-only: writers up to the
// removal of the lockstep batch tier set it on experiments whose faulty
// suffix ran in a batch replica. Nothing sets it any more; readers still
// accept it from older segments and shard streams and ignore it, because
// batching never changed an outcome or a cost share.
const (
	walFlagElided  = byte(1 << 0)
	walFlagBatched = byte(1 << 1)
)

func appendOutcome(buf []byte, o metrics.Outcome) []byte {
	buf = append(buf, byte(o.Kind), byte(o.Reason))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.Magnitudes)))
	for _, m := range o.Magnitudes {
		// Raw bits round-trip the ±Inf conservative magnitudes exactly.
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m))
	}
	return buf
}

var errWALShort = errors.New("inject: wal: short record payload")

type walReader struct {
	b []byte
}

func (r *walReader) bytes(n int) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, errWALShort
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *walReader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *walReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *walReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func parseExperimentPayload(body []byte) (WALRecord, error) {
	r := &walReader{b: body}
	var rec WALRecord
	var err error
	if rec.Key, err = parseClassKey(r); err != nil {
		return rec, err
	}
	if rec.Out, err = parseOutcome(r); err != nil {
		return rec, err
	}
	hasFin, err := r.u8()
	if err != nil {
		return rec, err
	}
	if hasFin != 0 {
		fin, err := parseOutcome(r)
		if err != nil {
			return rec, err
		}
		rec.Fin = &fin
	}
	rec.Cost.Experiments = 1
	if rec.Cost.SimInstrs, err = r.u64(); err != nil {
		return rec, err
	}
	if rec.Cost.CleanInstrs, err = r.u64(); err != nil {
		return rec, err
	}
	if rec.Cost.FaultyInstrs, err = r.u64(); err != nil {
		return rec, err
	}
	flags, err := r.u8()
	if err != nil {
		return rec, err
	}
	if rec.Cost.ElidedInstrs, err = r.u64(); err != nil {
		return rec, err
	}
	if flags&walFlagElided != 0 {
		rec.Cost.ElidedExperiments = 1
	}
	if len(r.b) != 0 {
		return rec, errWALShort
	}
	return rec, nil
}

func parseOutcome(r *walReader) (metrics.Outcome, error) {
	var o metrics.Outcome
	kind, err := r.u8()
	if err != nil {
		return o, err
	}
	reason, err := r.u8()
	if err != nil {
		return o, err
	}
	o.Kind, o.Reason = metrics.OutcomeKind(kind), metrics.DetectReason(reason)
	n, err := r.u32()
	if err != nil {
		return o, err
	}
	if n > maxWALPayload/8 {
		return o, errWALShort
	}
	if n > 0 {
		o.Magnitudes = make([]float64, n)
		for i := range o.Magnitudes {
			bits, err := r.u64()
			if err != nil {
				return o, err
			}
			o.Magnitudes[i] = math.Float64frombits(bits)
		}
	}
	return o, nil
}

func appendAmpPayload(buf []byte, a WALAmp) []byte {
	buf = append(buf, walRecAmp)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.K)))
	cols := 0
	if len(a.K) > 0 {
		cols = len(a.K[0])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cols))
	for _, row := range a.K {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Runs))
	buf = binary.LittleEndian.AppendUint64(buf, a.SimInstrs)
	return buf
}

func appendPoisonPayload(buf []byte, p WALPoison) []byte {
	buf = append(buf, walRecPoison)
	buf = appendClassKey(buf, p.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Attempts))
	buf = binary.LittleEndian.AppendUint64(buf, p.MachineFP)
	stack := p.Stack
	if len(stack) > maxPoisonStack {
		stack = stack[:maxPoisonStack]
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(stack)))
	buf = append(buf, stack...)
	return buf
}

func parsePoisonPayload(body []byte) (WALPoison, error) {
	r := &walReader{b: body}
	var p WALPoison
	var err error
	if p.Key, err = parseClassKey(r); err != nil {
		return p, err
	}
	attempts, err := r.u32()
	if err != nil {
		return p, err
	}
	p.Attempts = int(attempts)
	if p.MachineFP, err = r.u64(); err != nil {
		return p, err
	}
	n, err := r.u32()
	if err != nil {
		return p, err
	}
	stack, err := r.bytes(int(n))
	if err != nil {
		return p, err
	}
	p.Stack = string(stack)
	if len(r.b) != 0 {
		return p, errWALShort
	}
	return p, nil
}

func appendShardPayload(buf []byte, s WALShard) []byte {
	buf = append(buf, walRecShard)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Worker)))
	buf = append(buf, s.Worker...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Lo))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Hi))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Records))
	return buf
}

func parseShardPayload(body []byte) (WALShard, error) {
	r := &walReader{b: body}
	var s WALShard
	n, err := r.u32()
	if err != nil {
		return s, err
	}
	worker, err := r.bytes(int(n))
	if err != nil {
		return s, err
	}
	s.Worker = string(worker)
	if s.Epoch, err = r.u64(); err != nil {
		return s, err
	}
	lo, err := r.u32()
	if err != nil {
		return s, err
	}
	hi, err := r.u32()
	if err != nil {
		return s, err
	}
	recs, err := r.u32()
	if err != nil {
		return s, err
	}
	s.Lo, s.Hi, s.Records = int(lo), int(hi), int(recs)
	if len(r.b) != 0 {
		return s, errWALShort
	}
	return s, nil
}

func parseAmpPayload(body []byte) (*WALAmp, error) {
	r := &walReader{b: body}
	rows, err := r.u32()
	if err != nil {
		return nil, err
	}
	cols, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(rows)*uint64(cols) > maxWALPayload/8 {
		return nil, errWALShort
	}
	a := &WALAmp{K: make([][]float64, rows)}
	for i := range a.K {
		a.K[i] = make([]float64, cols)
		for j := range a.K[i] {
			bits, err := r.u64()
			if err != nil {
				return nil, err
			}
			a.K[i][j] = math.Float64frombits(bits)
		}
	}
	runs, err := r.u64()
	if err != nil {
		return nil, err
	}
	a.Runs = int(runs)
	if a.SimInstrs, err = r.u64(); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, errWALShort
	}
	return a, nil
}
