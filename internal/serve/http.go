package serve

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
)

// maxRequestLine bounds one NDJSON request line; batches are bounded
// separately by Config.MaxBatch, this only guards the scanner.
const maxRequestLine = 1 << 20

// NewHTTPHandler serves the NDJSON ingest API on POST /v1/push: one
// PushRequest per body line, one PushResponse line back per processed
// request, in order. Lines are processed sequentially — a rejected line
// stops the batch, and the status code reports the first failure: 400 for a
// malformed line, 429 when the tenant's shard is saturated (the processed
// prefix is still returned, so the client resumes from the rejected line),
// 500 for a scoring or NewTenant error or a response JSON cannot carry (NaN,
// ±Inf), 503 while draining.
//
// The codec does no reflection per symbol or per response. ParsePushRequest
// leaves the request object (keys, escapes, duplicate and unknown fields) to
// encoding/json but reads the symbols array straight from its bytes, and
// AppendPushResponse writes each response line by hand, with encoding/json
// quoting only its two strings. Two fuzz oracles hold the codec to
// encoding/json: FuzzNDJSONRequest against json.Unmarshal, FuzzPushResponse
// against json.Marshal.
func NewHTTPHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/push", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		status := http.StatusOK
		var out []byte
		sc := bufio.NewScanner(r.Body)
		// No preallocated buffer: the scanner grows only to the longest line.
		sc.Buffer(nil, maxRequestLine)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			req, err := ParsePushRequest(line)
			if err != nil {
				status = http.StatusBadRequest
				out = appendErrorLine(out, PushResponse{Error: err.Error()})
				break
			}
			res, err := s.submitAndWait(req)
			if err != nil {
				switch {
				case errors.Is(err, ErrBusy):
					status = http.StatusTooManyRequests
				case errors.Is(err, ErrDraining):
					status = http.StatusServiceUnavailable
				default:
					status = http.StatusBadRequest
				}
				out = appendErrorLine(out, PushResponse{Tenant: req.Tenant, Error: err.Error()})
				break
			}
			resp := PushResponse{
				Tenant:   req.Tenant,
				Accepted: len(req.Symbols),
				Alarms:   res.Alarms,
				Closed:   res.Closed,
			}
			if !req.Quiet {
				resp.Responses = res.Responses
			}
			if res.Err != nil {
				resp.Error = res.Err.Error()
				status = http.StatusInternalServerError
			}
			if out, err = AppendPushResponse(out, resp); err != nil {
				resp.Responses, resp.Error = nil, err.Error()
				out = appendErrorLine(out, resp)
				status = http.StatusInternalServerError
				break
			}
			if res.Err != nil {
				break
			}
		}
		if err := sc.Err(); err != nil && status == http.StatusOK {
			status = http.StatusBadRequest
			out = appendErrorLine(out, PushResponse{Error: err.Error()})
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(status)
		w.Write(out) //nolint:errcheck // client gone; nothing to do
	})
	return mux
}

// submitAndWait bridges the async Submit to the handler's sequential
// request/response model.
func (s *Server) submitAndWait(req PushRequest) (Result, error) {
	ch := make(chan Result, 1)
	err := s.Submit(req.Tenant, SymbolsOf(req), req.Close, func(res Result) { ch <- res })
	if err != nil {
		return Result{}, err
	}
	return <-ch, nil
}

// appendErrorLine appends a response line that carries no responses, which
// AppendPushResponse always encodes.
func appendErrorLine(out []byte, resp PushResponse) []byte {
	out, _ = AppendPushResponse(out, resp)
	return out
}
