package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"grasp/internal/journal"
)

// frameReader reads frames held in memory the way a connection reads
// them off the wire, reusing its reader and buffer across calls.
type frameReader struct {
	r   bytes.Reader
	buf []byte
}

func (fr *frameReader) read(frame []byte) (typ byte, body []byte, err error) {
	fr.r.Reset(frame)
	typ, body, fr.buf, err = readMsg(&fr.r, fr.buf[:0])
	return typ, body, err
}

// decodeMsg reads one message out of a frame held in memory.
func decodeMsg(frame []byte) (typ byte, body []byte, err error) {
	return new(frameReader).read(frame)
}

// frameRoundTrip encodes one message into a finished frame and decodes it
// back through decodeMsg, failing on any frame-layer mismatch.
func frameRoundTrip(t *testing.T, typ byte, encode func([]byte) []byte) []byte {
	t.Helper()
	frame := journal.FinishFrame(encode(beginMsg(nil, typ)))
	gotTyp, payload, err := decodeMsg(frame)
	if err != nil {
		t.Fatalf("decodeMsg: %v", err)
	}
	if gotTyp != typ {
		t.Fatalf("frame type = %d, want %d", gotTyp, typ)
	}
	return payload
}

func TestCodecRegisterRoundTrip(t *testing.T) {
	in := RegisterRequest{
		ID: "node-a", Capacity: 4, SpeedOPS: 2.5e8,
		Transports: []string{TransportBinary, TransportJSON},
	}
	payload := frameRoundTrip(t, msgRegister, func(dst []byte) []byte {
		return appendRegisterRequest(dst, in)
	})
	var out RegisterRequest
	if err := decodeRegisterRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("register round trip: got %+v, want %+v", out, in)
	}

	respIn := RegisterResponse{Gen: 42, HeartbeatMS: 1000}
	payload = frameRoundTrip(t, msgRegisterResp, func(dst []byte) []byte {
		return appendRegisterResponse(dst, respIn)
	})
	var respOut RegisterResponse
	if err := decodeRegisterResponse(payload, &respOut); err != nil {
		t.Fatal(err)
	}
	if respOut != respIn {
		t.Fatalf("register response round trip: got %+v, want %+v", respOut, respIn)
	}
}

func TestCodecLeaseRoundTrip(t *testing.T) {
	// One decode target across both requests, as the binary server reuses
	// its per-connection scratch: the results of the first must not leak
	// into the second, which carries none.
	bare := LeaseRequest{ID: "node-a", Gen: 7, Max: 64, WaitMS: 2000}
	carrying := bare
	carrying.Results = []WireResult{
		{Dispatch: 201, Task: 5, Micros: 1234},
		{Dispatch: 202, Task: 6, Micros: 5678},
	}
	var reqOut LeaseRequest
	for _, reqIn := range []LeaseRequest{carrying, bare} {
		payload := frameRoundTrip(t, msgLease, func(dst []byte) []byte {
			return appendLeaseRequest(dst, reqIn)
		})
		if err := decodeLeaseRequest(payload, &reqOut); err != nil {
			t.Fatal(err)
		}
		if reqOut.ID != reqIn.ID || reqOut.Gen != reqIn.Gen || reqOut.Max != reqIn.Max ||
			reqOut.WaitMS != reqIn.WaitMS || len(reqOut.Results) != len(reqIn.Results) {
			t.Fatalf("lease request round trip: got %+v, want %+v", reqOut, reqIn)
		}
		for i, res := range reqIn.Results {
			if reqOut.Results[i] != res {
				t.Fatalf("lease-carried result %d: got %+v, want %+v", i, reqOut.Results[i], res)
			}
		}
	}
	// A request without results is byte for byte the layout that predates
	// the section: a peer that never heard of it still decodes.
	old := appendI64(appendU32(appendI64(appendStr(nil, bare.ID), bare.Gen), uint32(bare.Max)), bare.WaitMS)
	if got := appendLeaseRequest(nil, bare); !bytes.Equal(got, old) {
		t.Errorf("lease request without results = % x, want the old layout % x", got, old)
	}
	if got := len(appendLeaseRequest(nil, carrying)); got != len(old)+4+len(carrying.Results)*resultWireSize {
		t.Errorf("lease request with results is %d bytes, want %d", got, len(old)+4+len(carrying.Results)*resultWireSize)
	}

	tasks := []WireTask{
		{Dispatch: 101, Task: 1, Work: Work{Cost: 1.5, SleepUS: 200, Spin: 3}},
		{Dispatch: 102, Task: 2, Work: Work{Spin: 1_000_000}},
		{Dispatch: 103, Task: 3},
	}
	payload := frameRoundTrip(t, msgLeaseResp, func(dst []byte) []byte {
		return appendLeaseResponse(dst, tasks)
	})
	out, err := decodeLeaseResponse(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tasks, out) {
		t.Fatalf("lease batch round trip: got %+v, want %+v", out, tasks)
	}
	if got := len(payload); got != 4+len(tasks)*leaseTaskWireSize {
		t.Errorf("lease payload size = %d, want %d", got, 4+len(tasks)*leaseTaskWireSize)
	}
}

func TestCodecResultsRoundTrip(t *testing.T) {
	in := ResultsRequest{ID: "node-a", Gen: 9, Results: []WireResult{
		{Dispatch: 201, Task: 5, Micros: 1234},
		{Dispatch: 202, Task: 6, Micros: 5678},
	}}
	payload := frameRoundTrip(t, msgResults, func(dst []byte) []byte {
		return appendResultsRequest(dst, in)
	})
	var out ResultsRequest
	if err := decodeResultsRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("results round trip: got %+v, want %+v", out, in)
	}
}

func TestCodecIDGenAndErrorRoundTrip(t *testing.T) {
	payload := frameRoundTrip(t, msgHeartbeat, func(dst []byte) []byte {
		return appendIDGen(dst, "node-b", 13)
	})
	var id string
	var gen int64
	if err := decodeIDGen(payload, &id, &gen); err != nil {
		t.Fatal(err)
	}
	if id != "node-b" || gen != 13 {
		t.Fatalf("idgen round trip: got (%q, %d)", id, gen)
	}

	payload = frameRoundTrip(t, msgError, func(dst []byte) []byte {
		return appendError(dst, 410, "gone")
	})
	code, msg, err := decodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != 410 || msg != "gone" {
		t.Fatalf("error round trip: got (%d, %q)", code, msg)
	}
	if !errors.Is(wireError(code, msg), ErrGone) {
		t.Error("wire error 410 did not map to ErrGone")
	}
}

func TestReadFrameMatchesDecodeFrame(t *testing.T) {
	frame := journal.FinishFrame(appendIDGen(beginMsg(nil, msgLeave), "n", 1))
	typ, payload, _, err := readMsg(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	var id string
	var gen int64
	if err := decodeIDGen(payload, &id, &gen); err != nil {
		t.Fatal(err)
	}
	if typ != msgLeave || id != "n" || gen != 1 {
		t.Fatalf("readMsg: typ=%d id=%q gen=%d", typ, id, gen)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := journal.FinishFrame(appendIDGen(beginMsg(nil, msgHeartbeat), "node", 5))

	bad := append([]byte(nil), frame...)
	bad[0] = 'G' // not a frame
	if _, _, err := decodeMsg(bad); !errors.Is(err, errWire) {
		t.Errorf("bad magic err = %v, want errWire", err)
	}

	// Another wire revision, in an otherwise valid frame.
	bad = journal.FinishFrame(appendIDGen(append(journal.BeginFrame(nil), wireVersion+1, msgHeartbeat), "node", 5))
	if _, _, err := decodeMsg(bad); !errors.Is(err, errWire) {
		t.Errorf("bad version err = %v, want errWire", err)
	}

	// The CRC covers the version and type bytes as well as the message.
	for _, i := range []int{9, 10, len(frame) - 1} {
		bad = append([]byte(nil), frame...)
		bad[i] ^= 0xFF
		if _, _, err := decodeMsg(bad); !errors.Is(err, errWire) {
			t.Errorf("byte %d flipped: err = %v, want errWire", i, err)
		}
	}

	if _, _, err := decodeMsg(frame[:8]); err == nil {
		t.Error("truncated header accepted")
	}
}

// TestEncodedFrameSizesUnchanged: a frame is 11 bytes around its message
// (the journal's 9-byte header, then version and type), so the sizes the
// benchmark tables stay 135 and 79 bytes for this batch.
func TestEncodedFrameSizesUnchanged(t *testing.T) {
	lb, rb := EncodedFrameSizes(make([]WireTask, 3), ResultsRequest{ID: "node-a", Gen: 1, Results: make([]WireResult, 2)})
	if lb != 11+4+3*leaseTaskWireSize || rb != 11+8+8+4+2*resultWireSize {
		t.Fatalf("EncodedFrameSizes = %d, %d; want 135, 79 as before", lb, rb)
	}
}

// retiredFrame lays out one message the way the wire framed it before it
// reused the journal's frame: 0xB5 | version 1 | type | length | crc32 |
// message.
func retiredFrame(typ byte, msg []byte) []byte {
	frame := []byte{0xB5, 1, typ}
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(msg)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(msg))
	return append(frame, msg...)
}

// TestRetiredFrameIsRefused: a frame in the wire's earlier layout is
// refused by name, in memory and by a serving coordinator, which answers
// with one error frame telling the peer to upgrade and hangs up.
func TestRetiredFrameIsRefused(t *testing.T) {
	old := retiredFrame(msgHeartbeat, appendIDGen(nil, "node", 5))
	if _, _, err := decodeMsg(old); !errors.Is(err, errWire) {
		t.Fatalf("decodeMsg(retired frame) err = %v, want errWire", err)
	}

	co := testCoordinator(t, time.Second)
	addr := startTestServer(t, co)
	c, err := net.Dial("tcp", strings.TrimPrefix(addr, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write(old); err != nil {
		t.Fatal(err)
	}
	typ, body, _, err := readMsg(c, nil)
	if err != nil || typ != msgError {
		t.Fatalf("reply: type %d, err %v; want an error frame", typ, err)
	}
	code, msg, err := decodeError(body)
	if err != nil || code != 400 || !strings.Contains(msg, "upgrade workers and coordinator together") || !strings.Contains(msg, "0xB5") {
		t.Fatalf("reply: %d %q (%v), want 400 naming the lead byte and the upgrade", code, msg, err)
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("connection still open after the refusal: %v", err)
	}
}

func TestDecodeRejectsTruncatedPayloads(t *testing.T) {
	one := []WireResult{{Dispatch: 1, Task: 1, Micros: 1}}
	full := appendResultsRequest(nil, ResultsRequest{ID: "n", Gen: 1, Results: one})
	for cut := 0; cut < len(full); cut++ {
		var out ResultsRequest
		if err := decodeResultsRequest(full[:cut], &out); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	// A lease request cut anywhere but at the end of its fixed fields —
	// where it is a whole request without results — is refused too, as is
	// a results count the payload cannot hold.
	lease := appendLeaseRequest(nil, LeaseRequest{ID: "n", Gen: 1, Max: 8, WaitMS: 100, Results: one})
	fixed := len(lease) - 4 - resultWireSize
	for cut := 0; cut < len(lease); cut++ {
		var out LeaseRequest
		if err := decodeLeaseRequest(lease[:cut], &out); (err == nil) != (cut == fixed) {
			t.Fatalf("lease request truncated at %d/%d: err = %v", cut, len(lease), err)
		}
	}
	overcount := append([]byte(nil), lease...)
	overcount[fixed] = 2
	var out LeaseRequest
	if err := decodeLeaseRequest(overcount, &out); err == nil {
		t.Error("results count beyond the payload accepted")
	}
}

// TestCodecHotPathAllocations pins the zero-allocation claim at the codec
// layer: with scratch reused, encoding and decoding a full lease/results
// exchange allocates nothing.
func TestCodecHotPathAllocations(t *testing.T) {
	tasks := make([]WireTask, 64)
	for i := range tasks {
		tasks[i] = WireTask{Dispatch: int64(i + 1), Task: i, Work: Work{Spin: 100}}
	}
	buf := make([]byte, 0, 8192)
	scratch := make([]WireTask, 0, 64)
	fr := &frameReader{buf: make([]byte, 0, 8192)}
	if n := testing.AllocsPerRun(200, func() {
		buf = journal.FinishFrame(appendLeaseResponse(beginMsg(buf[:0], msgLeaseResp), tasks))
		_, payload, err := fr.read(buf)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		scratch, derr = decodeLeaseResponse(payload, scratch[:0])
		if derr != nil || len(scratch) != len(tasks) {
			t.Fatalf("decode: %v (%d tasks)", derr, len(scratch))
		}
	}); n != 0 {
		t.Errorf("lease encode+decode allocates %.1f/op, want 0", n)
	}

	req := ResultsRequest{ID: "node-a", Gen: 3, Results: make([]WireResult, 64)}
	for i := range req.Results {
		req.Results[i] = WireResult{Dispatch: int64(i + 1), Task: i, Micros: int64(i)}
	}
	var out ResultsRequest
	out.Results = make([]WireResult, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = journal.FinishFrame(appendResultsRequest(beginMsg(buf[:0], msgResults), req))
		_, payload, err := fr.read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if derr := decodeResultsRequest(payload, &out); derr != nil || len(out.Results) != 64 {
			t.Fatalf("decode: %v (%d results)", derr, len(out.Results))
		}
	}); n != 0 {
		t.Errorf("results encode+decode allocates %.1f/op, want 0", n)
	}
}

// FuzzFrameDecode asserts the frame reader — the journal's, under the
// wire's version and type, as a connection runs it — and every message
// decoder degrade to errors, never panics or hangs, on arbitrary input.
func FuzzFrameDecode(f *testing.F) {
	f.Add(journal.FinishFrame(appendRegisterRequest(beginMsg(nil, msgRegister),
		RegisterRequest{ID: "n", Capacity: 2, SpeedOPS: 1e6, Transports: []string{"binary", "json"}})))
	f.Add(journal.FinishFrame(appendLeaseResponse(beginMsg(nil, msgLeaseResp),
		[]WireTask{{Dispatch: 1, Task: 1, Work: Work{Spin: 5}}})))
	f.Add(journal.FinishFrame(appendResultsRequest(beginMsg(nil, msgResults),
		ResultsRequest{ID: "n", Gen: 1, Results: []WireResult{{Dispatch: 1, Task: 1, Micros: 9}}})))
	f.Add(journal.FinishFrame(appendLeaseRequest(beginMsg(nil, msgLease),
		LeaseRequest{ID: "n", Gen: 1, Max: 8, WaitMS: 100, Results: []WireResult{{Dispatch: 1, Task: 1, Micros: 9}}})))
	f.Add(journal.FinishFrame(appendError(beginMsg(nil, msgError), 410, "gone")))
	f.Add(journal.FinishFrame(beginMsg(nil, msgOK)))
	f.Add([]byte("GET /cluster/v1/nodes HTTP/1.1"))
	f.Add(retiredFrame(msgOK, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := decodeMsg(data)
		if err != nil {
			return
		}
		if n := 11 + len(payload); n > len(data) || !bytes.Equal(data[11:n], payload) {
			t.Fatalf("a frame of %d bytes yielded a %d-byte message", len(data), len(payload))
		}
		// A structurally valid frame: every decoder must stay in bounds.
		switch typ {
		case msgRegister:
			var req RegisterRequest
			decodeRegisterRequest(payload, &req)
		case msgRegisterResp:
			var resp RegisterResponse
			decodeRegisterResponse(payload, &resp)
		case msgLease:
			var req LeaseRequest
			decodeLeaseRequest(payload, &req)
		case msgLeaseResp:
			decodeLeaseResponse(payload, nil)
		case msgResults:
			var req ResultsRequest
			decodeResultsRequest(payload, &req)
		case msgHeartbeat, msgLeave:
			var id string
			var gen int64
			decodeIDGen(payload, &id, &gen)
		case msgError:
			decodeError(payload)
		}
	})
}
