package fault

import (
	"io"
	"net/http"
)

// Transport is a fault-injecting http.RoundTripper for the replication
// wire: OpRoundTrip decisions fail whole requests (a primary that is
// down), OpBody decisions cut the response body after Keep bytes (a
// connection severed mid-record) or flip a byte in flight (a corrupted
// stream the frame CRCs must catch).
type Transport struct {
	Base http.RoundTripper // nil: http.DefaultTransport
	S    *Schedule
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if d := t.S.Next(OpRoundTrip); d.Err != nil {
		return nil, d.Err
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	if bd := t.S.Next(OpBody); bd.fires() {
		resp.Body = &faultBody{rc: resp.Body, d: bd}
	}
	return resp, nil
}

// faultBody applies one body decision: pass Keep bytes, then cut with the
// decision's error; or flip the byte at offset Keep and carry on.
type faultBody struct {
	rc      io.ReadCloser
	d       Decision
	n       int
	flipped bool
}

func (b *faultBody) Read(p []byte) (int, error) {
	if b.d.Err != nil {
		remain := b.d.Keep - b.n
		if remain <= 0 {
			return 0, b.d.Err
		}
		if len(p) > remain {
			p = p[:remain]
		}
	}
	n, err := b.rc.Read(p)
	if b.d.Flip && !b.flipped && n > 0 && b.n+n > b.d.Keep {
		i := b.d.Keep - b.n
		if i < 0 {
			i = 0
		}
		p[i] ^= 0x40
		b.flipped = true
	}
	b.n += n
	return n, err
}

func (b *faultBody) Close() error { return b.rc.Close() }
