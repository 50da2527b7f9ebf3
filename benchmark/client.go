package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/actindex/act"
)

// client is one role of the load generator: a single keep-alive connection
// to the child, used by one goroutine, so requests on it are closed-loop.
type client struct {
	hc    *http.Client
	base  string
	token string
	body  bytes.Buffer // response scratch, reused
	url   []byte       // request-URL scratch, reused
}

func newClient(base, token string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, token: token}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body into c.body. The
// returned latency runs from just before the send to the last body byte.
func (c *client) do(method, url string, body []byte) (status int, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	lat = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// lookupAnswer is the part of a /lookup response the oracle checks.
type lookupAnswer struct {
	True       []uint32 `json:"true"`
	Candidates []uint32 `json:"candidates"`
}

func (c *client) lookup(ll act.LatLng, exact bool) (lookupAnswer, time.Duration, error) {
	u := append(c.url[:0], c.base...)
	u = append(u, "/lookup?lat="...)
	u = strconv.AppendFloat(u, ll.Lat, 'f', -1, 64)
	u = append(u, "&lng="...)
	u = strconv.AppendFloat(u, ll.Lng, 'f', -1, 64)
	if exact {
		u = append(u, "&exact=1"...)
	}
	c.url = u
	var ans lookupAnswer
	status, lat, err := c.do(http.MethodGet, string(u), nil)
	if err != nil {
		return ans, lat, err
	}
	if status != http.StatusOK {
		return ans, lat, fmt.Errorf("/lookup: status %d: %s", status, firstLine(c.body.Bytes()))
	}
	return ans, lat, json.Unmarshal(c.body.Bytes(), &ans)
}

// joinCounts is the trailer of a /join response plus the number of pair
// lines that preceded it.
type joinCounts struct {
	Lines         int64
	Pairs         int64 `json:"pairs"`
	TrueHits      int64 `json:"trueHits"`
	CandidateHits int64 `json:"candidateHits"`
	Misses        int64 `json:"misses"`
}

// joinBody encodes the request body of POST /join for pts.
func joinBody(pts []act.LatLng) []byte {
	b := []byte(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lat":`...)
		b = strconv.AppendFloat(b, p.Lat, 'f', -1, 64)
		b = append(b, `,"lng":`...)
		b = strconv.AppendFloat(b, p.Lng, 'f', -1, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// join posts one pre-encoded body and returns the trailer counts; the raw
// NDJSON stays in c.body for callers that check the pairs themselves.
func (c *client) join(body []byte) (joinCounts, time.Duration, error) {
	var jc joinCounts
	status, lat, err := c.do(http.MethodPost, c.base+"/join", body)
	if err != nil {
		return jc, lat, err
	}
	if status != http.StatusOK {
		return jc, lat, fmt.Errorf("/join: status %d: %s", status, firstLine(c.body.Bytes()))
	}
	raw := bytes.TrimRight(c.body.Bytes(), "\n")
	cut := bytes.LastIndexByte(raw, '\n')
	jc.Lines = int64(bytes.Count(raw[:cut+1], []byte{'\n'}))
	var trailer struct {
		Stats *joinCounts `json:"stats"`
	}
	trailer.Stats = &jc
	if err := json.Unmarshal(raw[cut+1:], &trailer); err != nil {
		return jc, lat, fmt.Errorf("/join: trailer: %w", err)
	}
	return jc, lat, nil
}

// joinPairs parses the pair lines left in c.body by the last join call.
func (c *client) joinPairs() ([]act.Pair, error) {
	var pairs []act.Pair
	sc := bufio.NewScanner(bytes.NewReader(c.body.Bytes()))
	for sc.Scan() {
		var line struct {
			Point   *int   `json:"point"`
			Polygon uint32 `json:"polygon"`
			Class   string `json:"class"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, err
		}
		if line.Point == nil {
			continue // the trailer
		}
		class := act.Candidate
		if line.Class == act.TrueHit.String() {
			class = act.TrueHit
		}
		pairs = append(pairs, act.Pair{Point: *line.Point, Polygon: line.Polygon, Class: class})
	}
	return pairs, sc.Err()
}

// polygonBody encodes a polygon without holes as a GeoJSON geometry.
func polygonBody(p *act.Polygon) []byte {
	b := []byte(`{"type":"Polygon","coordinates":[[`)
	ring := append(append([]act.LatLng(nil), p.Outer...), p.Outer[0])
	for i, v := range ring {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, v.Lng, 'f', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, v.Lat, 'f', -1, 64)
		b = append(b, ']')
	}
	return append(b, `]]}`...)
}

// insert posts one polygon and returns the id the server assigned.
func (c *client) insert(body []byte) (uint32, time.Duration, error) {
	status, lat, err := c.do(http.MethodPost, c.base+"/polygons", body)
	if err != nil {
		return 0, lat, err
	}
	if status != http.StatusOK {
		return 0, lat, fmt.Errorf("POST /polygons: status %d: %s", status, firstLine(c.body.Bytes()))
	}
	var resp struct {
		IDs []uint32 `json:"ids"`
	}
	if err := json.Unmarshal(c.body.Bytes(), &resp); err != nil {
		return 0, lat, err
	}
	if len(resp.IDs) != 1 {
		return 0, lat, fmt.Errorf("POST /polygons: %d ids for one polygon", len(resp.IDs))
	}
	return resp.IDs[0], lat, nil
}

func (c *client) remove(id uint32) (time.Duration, error) {
	status, lat, err := c.do(http.MethodDelete, c.base+"/polygons/"+strconv.FormatUint(uint64(id), 10), nil)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("DELETE /polygons/%d: status %d: %s", id, status, firstLine(c.body.Bytes()))
	}
	return lat, nil
}

// serverStats is the part of /stats the mutation schedule steers by.
type serverStats struct {
	DeltaPolygons int    `json:"deltaPolygons"`
	Tombstones    int    `json:"tombstones"`
	Compactions   uint64 `json:"compactions"`
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	status, _, err := c.do(http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", status)
	}
	return st, json.Unmarshal(c.body.Bytes(), &st)
}

// promSample is the state of the child's /metrics that per-layer numbers
// are derived from, as deltas between two scrapes.
type promSample map[string]float64

// scrape reads /metrics into a map keyed by the full sample name including
// labels, e.g. `act_http_request_duration_seconds_sum{route="lookup"}`.
func (c *client) scrape() (promSample, error) {
	status, _, err := c.do(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := promSample{}
	for _, line := range strings.Split(c.body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// histogramQuantile estimates quantile q of the observations a histogram
// took between two scrapes, interpolating inside the bucket it falls in.
// name is the metric without suffix; its samples must carry no label but le.
func histogramQuantile(before, after promSample, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64) // "+Inf" parses
			if err == nil {
				bs = append(bs, bucket{le, v - before[k]})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/max(b.n-below, 1)
		}
		lo, below = b.le, b.n
	}
	return lo
}
