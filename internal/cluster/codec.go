package cluster

// The binary wire codec: the length-prefixed framing the binary transport
// speaks on the cluster port. It reuses the framing idiom of
// internal/journal — a magic byte, an explicit payload length, and a
// CRC32 over the payload — so a frame torn by a dying connection is
// detected, never misparsed. On top of the frame sits a fixed
// little-endian message encoding with no reflection, no maps, and no
// intermediate buffers: every encode appends into a caller-supplied (or
// pooled) []byte and every decode reads straight out of the frame, which
// is what lets the steady-state dispatch path run at zero allocations per
// task (see the codec and dispatch benchmarks).
//
// A frame is
//
//	magic(1)=0xB5 | version(1) | type(1) | length(4, LE) | crc32(4, LE, IEEE over payload) | payload
//
// The magic deliberately sits outside ASCII: the first byte of an HTTP
// request is always a method letter, so one listener can serve both
// bindings by sniffing a single byte (see server.go). Requests and
// responses use the same framing; the message type tags the payload
// layout. Strings are u16-length-prefixed UTF-8; integers are fixed-width
// little-endian; floats are IEEE 754 bits.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// frameMagic leads every binary frame. It must never be a byte that can
	// begin an HTTP request line, or the protocol sniffer would misroute.
	frameMagic = 0xB5
	// frameVersion is the codec revision; a peer speaking a different
	// version is rejected at the frame layer.
	frameVersion = 1
	// frameHeaderSize is magic + version + type + length + crc.
	frameHeaderSize = 11
	// maxFramePayload bounds one frame's payload, mirroring the JSON
	// binding's request-body cap.
	maxFramePayload = maxClusterBody
)

// Binary message types. Requests mirror the five protocol verbs; a
// response is ok/err or a verb-specific payload.
const (
	msgRegister = iota + 1
	msgLease
	msgResults
	msgHeartbeat
	msgLeave
	msgRegisterResp
	msgLeaseResp
	msgOK
	msgError
)

// Frame-layer errors.
var (
	errBadFrame = errors.New("cluster: malformed binary frame")
	errFrameCRC = errors.New("cluster: binary frame failed its CRC")
)

// beginFrame appends a frame header placeholder for the given message
// type; finishFrame back-fills length and CRC once the payload is in.
func beginFrame(dst []byte, typ byte) []byte {
	return append(dst, frameMagic, frameVersion, typ,
		0, 0, 0, 0, // length
		0, 0, 0, 0) // crc
}

// finishFrame back-fills the header of the frame that starts at the
// beginning of buf (one frame per buffer).
func finishFrame(buf []byte) []byte {
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[3:7], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[7:11], crc32.ChecksumIEEE(payload))
	return buf
}

// readFrame reads one whole frame from r into buf (which is grown as
// needed and returned), verifying magic, version, bound, and CRC. It
// returns the message type and the payload view into buf.
func readFrame(r io.Reader, buf []byte) (typ byte, payload, out []byte, err error) {
	buf = grow(buf, frameHeaderSize)
	if _, err = io.ReadFull(r, buf[:frameHeaderSize]); err != nil {
		return 0, nil, buf, err
	}
	if buf[0] != frameMagic || buf[1] != frameVersion {
		return 0, nil, buf, errBadFrame
	}
	typ = buf[2]
	n := binary.LittleEndian.Uint32(buf[3:7])
	if n > maxFramePayload {
		return 0, nil, buf, errBadFrame
	}
	crc := binary.LittleEndian.Uint32(buf[7:11])
	buf = grow(buf, frameHeaderSize+int(n))
	payload = buf[frameHeaderSize : frameHeaderSize+int(n)]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, buf, errFrameCRC
	}
	return typ, payload, buf, nil
}

// grow ensures cap(buf) >= n without shrinking, reusing the backing array
// whenever possible.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n, n+n/2)
	}
	return buf[:n]
}

// decodeFrame parses one whole frame out of data (for the fuzzer and for
// callers holding a complete frame in memory). It enforces exactly the
// same checks as readFrame.
func decodeFrame(data []byte) (typ byte, payload []byte, err error) {
	if len(data) < frameHeaderSize || data[0] != frameMagic || data[1] != frameVersion {
		return 0, nil, errBadFrame
	}
	n := binary.LittleEndian.Uint32(data[3:7])
	if n > maxFramePayload || int(n) != len(data)-frameHeaderSize {
		return 0, nil, errBadFrame
	}
	payload = data[frameHeaderSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[7:11]) {
		return 0, nil, errFrameCRC
	}
	return data[2], payload, nil
}

// --- primitive append helpers ---

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendI64(dst []byte, v int64) []byte {
	u := uint64(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func appendF64(dst []byte, v float64) []byte {
	return appendI64(dst, int64(math.Float64bits(v)))
}

func appendStr(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// byteReader is the decode cursor: reads are bounds-checked and a short
// read latches the error instead of panicking, so a truncated or
// adversarial payload degrades to a decode error.
type byteReader struct {
	b   []byte
	off int
	bad bool
}

func (r *byteReader) take(n int) []byte {
	if r.bad || n < 0 || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *byteReader) f64() float64 {
	return math.Float64frombits(uint64(r.i64()))
}

// strBytes returns a view of the next string's bytes (no copy); the view
// is only valid while the frame buffer is.
func (r *byteReader) strBytes() []byte {
	return r.take(int(r.u16()))
}

// str materialises the next string, reusing prev when the bytes match —
// the steady-state path (every frame from one worker carries the same
// node id) allocates nothing.
func (r *byteReader) str(prev string) string {
	b := r.strBytes()
	if string(b) == prev { // compiler-optimised comparison: no allocation
		return prev
	}
	return string(b)
}

func (r *byteReader) done() bool { return !r.bad && r.off == len(r.b) }

var errDecode = errors.New("cluster: truncated or malformed binary message")

// --- message payload encodings ---

func appendRegisterRequest(dst []byte, req RegisterRequest) []byte {
	dst = appendStr(dst, req.ID)
	dst = appendU32(dst, uint32(req.Capacity))
	dst = appendF64(dst, req.SpeedOPS)
	n := len(req.Transports)
	if n > 255 {
		n = 255
	}
	dst = append(dst, byte(n))
	for _, tr := range req.Transports[:n] {
		dst = appendStr(dst, tr)
	}
	return dst
}

func decodeRegisterRequest(payload []byte, req *RegisterRequest) error {
	r := byteReader{b: payload}
	req.ID = r.str(req.ID)
	req.Capacity = int(int32(r.u32()))
	req.SpeedOPS = r.f64()
	n := int(r.u8())
	req.Transports = req.Transports[:0]
	for i := 0; i < n; i++ {
		req.Transports = append(req.Transports, string(r.strBytes()))
	}
	if !r.done() {
		return errDecode
	}
	return nil
}

func appendRegisterResponse(dst []byte, resp RegisterResponse) []byte {
	dst = appendI64(dst, resp.Gen)
	return appendI64(dst, resp.HeartbeatMS)
}

func decodeRegisterResponse(payload []byte, resp *RegisterResponse) error {
	r := byteReader{b: payload}
	resp.Gen = r.i64()
	resp.HeartbeatMS = r.i64()
	if !r.done() {
		return errDecode
	}
	return nil
}

// appendLeaseRequest encodes the lease verb. The results of the previous
// lease ride behind the fixed fields as an optional trailing section —
// omitted when there are none, which is byte for byte the layout that
// predates it.
func appendLeaseRequest(dst []byte, req LeaseRequest) []byte {
	dst = appendStr(dst, req.ID)
	dst = appendI64(dst, req.Gen)
	dst = appendU32(dst, uint32(req.Max))
	dst = appendI64(dst, req.WaitMS)
	if len(req.Results) > 0 {
		dst = appendResults(dst, req.Results)
	}
	return dst
}

// decodeLeaseRequest decodes into req, reusing req.ID and req.Results'
// backing array across calls like decodeResultsRequest.
func decodeLeaseRequest(payload []byte, req *LeaseRequest) error {
	r := byteReader{b: payload}
	req.ID = r.str(req.ID)
	req.Gen = r.i64()
	req.Max = int(int32(r.u32()))
	req.WaitMS = r.i64()
	req.Results = req.Results[:0]
	if r.off < len(r.b) { // the optional results section
		req.Results = decodeResults(&r, req.Results)
	}
	if !r.done() {
		return errDecode
	}
	return nil
}

// appendLeaseResponse packs the whole leased batch into one frame payload:
// 40 bytes per task against ~90 of JSON, and no per-task allocations on
// either side.
func appendLeaseResponse(dst []byte, tasks []WireTask) []byte {
	dst = appendU32(dst, uint32(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		dst = appendI64(dst, t.Dispatch)
		dst = appendI64(dst, int64(t.Task))
		dst = appendF64(dst, t.Cost)
		dst = appendI64(dst, t.SleepUS)
		dst = appendI64(dst, t.Spin)
	}
	return dst
}

// decodeLeaseResponse appends the decoded batch onto buf (pass buf[:0] to
// reuse an executor's scratch) and returns it.
func decodeLeaseResponse(payload []byte, buf []WireTask) ([]WireTask, error) {
	r := byteReader{b: payload}
	n := int(r.u32())
	if n < 0 || n > maxFramePayload/leaseTaskWireSize {
		return buf, errDecode
	}
	for i := 0; i < n; i++ {
		var t WireTask
		t.Dispatch = r.i64()
		t.Task = int(r.i64())
		t.Cost = r.f64()
		t.SleepUS = r.i64()
		t.Spin = r.i64()
		if r.bad {
			return buf, errDecode
		}
		buf = append(buf, t)
	}
	if !r.done() {
		return buf, errDecode
	}
	return buf, nil
}

// leaseTaskWireSize is one task's encoded size (five 8-byte fields).
const leaseTaskWireSize = 40

// resultWireSize is one result's encoded size (three 8-byte fields).
const resultWireSize = 24

// appendResults encodes a results section: a count and one fixed-size
// record per finished execution.
func appendResults(dst []byte, results []WireResult) []byte {
	dst = appendU32(dst, uint32(len(results)))
	for i := range results {
		res := &results[i]
		dst = appendI64(dst, res.Dispatch)
		dst = appendI64(dst, int64(res.Task))
		dst = appendI64(dst, res.Micros)
	}
	return dst
}

// decodeResults appends the next results section onto buf and returns it;
// a count the payload cannot hold or a short record latches r.bad.
func decodeResults(r *byteReader, buf []WireResult) []WireResult {
	n := int(r.u32())
	if n < 0 || n > (len(r.b)-r.off)/resultWireSize {
		r.bad = true
		return buf
	}
	for i := 0; i < n; i++ {
		var res WireResult
		res.Dispatch = r.i64()
		res.Task = int(r.i64())
		res.Micros = r.i64()
		buf = append(buf, res)
	}
	return buf
}

func appendResultsRequest(dst []byte, req ResultsRequest) []byte {
	dst = appendStr(dst, req.ID)
	dst = appendI64(dst, req.Gen)
	return appendResults(dst, req.Results)
}

// decodeResultsRequest decodes into req, reusing req.ID and req.Results'
// backing array across calls — the per-connection scratch discipline the
// binary server runs on.
func decodeResultsRequest(payload []byte, req *ResultsRequest) error {
	r := byteReader{b: payload}
	req.ID = r.str(req.ID)
	req.Gen = r.i64()
	req.Results = decodeResults(&r, req.Results[:0])
	if !r.done() {
		return errDecode
	}
	return nil
}

// appendIDGen encodes the heartbeat/leave payload (id, gen).
func appendIDGen(dst []byte, id string, gen int64) []byte {
	dst = appendStr(dst, id)
	return appendI64(dst, gen)
}

func decodeIDGen(payload []byte, id *string, gen *int64) error {
	r := byteReader{b: payload}
	*id = r.str(*id)
	*gen = r.i64()
	if !r.done() {
		return errDecode
	}
	return nil
}

func appendError(dst []byte, code uint16, msg string) []byte {
	dst = appendU16(dst, code)
	return appendStr(dst, msg)
}

func decodeError(payload []byte) (code uint16, msg string, err error) {
	r := byteReader{b: payload}
	code = r.u16()
	msg = string(r.strBytes())
	if !r.done() {
		return 0, "", errDecode
	}
	return code, msg, nil
}

// wireError maps a binary error frame onto the protocol's sentinel
// errors: 410 is ErrGone (re-register), anything else is surfaced
// verbatim.
func wireError(code uint16, msg string) error {
	if code == 410 {
		return ErrGone
	}
	return fmt.Errorf("cluster: wire error %d: %s", code, msg)
}

// EncodedFrameSizes reports the on-wire byte counts of a lease batch and
// a results batch as binary frames (header + CRC + payload). Both are
// deterministic functions of the inputs; the transport-comparison
// experiment tables them against the JSON encodings of the same batches.
func EncodedFrameSizes(tasks []WireTask, res ResultsRequest) (leaseBytes, resultsBytes int) {
	leaseBytes = len(finishFrame(appendLeaseResponse(beginFrame(nil, msgLeaseResp), tasks)))
	resultsBytes = len(finishFrame(appendResultsRequest(beginFrame(nil, msgResults), res)))
	return leaseBytes, resultsBytes
}
