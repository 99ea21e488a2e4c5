package service

// POST /v1/verify/batch — the corpus-scale verification path. The request
// body is NDJSON, one /v1/verify body per line; bulk callers send
// chain_der (base64 DER, leaf first) to skip PEM decoding. The response
// streams back one NDJSON object per input line, in input order, so a
// million-chain batch runs in constant memory on both ends. Each line runs
// through the verify core shared with /v1/verify (verify.go) and renders
// the same object with a leading "seq"; this file is the streaming around
// it.
//
// The pipeline is: reader → bounded worker set → ordered writer.
//
//   - The reader splits lines and hands each a sequence number. It blocks
//     when the ordered-output queue is full, so a slow client (or a writer
//     that has fallen behind) pauses reads — back-pressure all the way to
//     the peer's TCP window.
//   - Workers run lines through the core concurrently, each with its own
//     scratch. Routes are resolved once per distinct
//     (stores, user_agent, at) tuple per batch, so the warm
//     (verdict-cache-hit) path allocates close to nothing per verdict.
//   - The writer drains jobs in sequence order and recycles their buffers.
//
// The whole batch runs against ONE serving generation: a reload mid-batch
// cannot mix verdicts from two databases in one response. Cold
// verifications take a slot of the same -workers semaphore as /v1/verify,
// so a batch cannot starve interactive requests of CPU, only queue behind
// them.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// batchPath is exempt from the whole-body size cap (the stream is
// unbounded by design; each LINE is capped at MaxBodyBytes instead) and
// from RequestTimeout (it is bounded by WatchTimeout like other streams).
const batchPath = "/v1/verify/batch"

// batchJob carries one line through the pipeline. Jobs are recycled
// through a per-batch free list, so a steady-state batch allocates no new
// jobs after the pipeline fills.
type batchJob struct {
	seq     int
	line    []byte
	buf     []byte        // rendered output line, written by the worker
	tooLong bool          // the line exceeded the per-line byte cap
	done    chan struct{} // cap 1; worker signals the writer
}

func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	// One generation for the whole batch; its identity rides the response
	// headers like every other /v1 route.
	st := s.cur()
	s.stampGeneration(w, st)
	ctx := r.Context()
	s.metrics.batches.Inc()

	b := &verifyRun{s: s, st: st, ctx: ctx, batch: true, routes: map[string]*verifyRoute{}}
	maxLine := int(s.cfg.MaxBodyBytes)

	workers := s.cfg.BatchWorkers
	work := make(chan *batchJob, workers)
	order := make(chan *batchJob, 2*workers+2)
	free := make(chan *batchJob, cap(order)+workers+1)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := obs.StartLeafSpan(ctx, "batch.verify")
			defer span.End()
			sc := s.scratch.Get().(*verifyScratch)
			defer s.scratch.Put(sc)
			n := 0
			for job := range work {
				b.processLine(sc, job, maxLine)
				n++
				job.done <- struct{}{}
			}
			span.SetAttr("lines", strconv.Itoa(n))
		}()
	}

	// Reader: split lines, assign sequence numbers, enqueue to the ordered
	// queue first (that is the back-pressure point) and then to the
	// workers.
	go func() {
		defer close(work)
		defer close(order)
		span := obs.StartLeafSpan(ctx, "batch.read")
		defer span.End()
		br := bufio.NewReaderSize(r.Body, 64<<10)
		var spill []byte
		seq := 0
		for {
			if ctx.Err() != nil {
				return
			}
			line, tooLong, err := readBatchLine(br, maxLine, &spill)
			if err != nil && err != io.EOF {
				span.SetAttr("read_error", err.Error())
				return
			}
			if len(line) != 0 || tooLong {
				var job *batchJob
				select {
				case job = <-free:
				default:
					job = &batchJob{done: make(chan struct{}, 1)}
				}
				job.seq = seq
				seq++
				job.line = append(job.line[:0], line...)
				job.tooLong = tooLong
				s.metrics.batchQueue.Add(1)
				select {
				case order <- job:
				case <-ctx.Done():
					// The job never reached the writer; undo its depth.
					s.metrics.batchQueue.Add(-1)
					return
				}
				select {
				case work <- job:
				case <-ctx.Done():
					// The writer already owns this job via the ordered
					// queue; resolve it so the drain never blocks.
					job.buf = job.buf[:0]
					job.done <- struct{}{}
					return
				}
			}
			if err == io.EOF {
				span.SetAttr("lines", strconv.Itoa(seq))
				return
			}
		}
	}()

	// Writer: the handler goroutine itself. Streams verdict lines back in
	// input order and recycles jobs.
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	rc := http.NewResponseController(w)
	// HTTP/1.x closes the request body once the response starts unless the
	// handler declares full-duplex intent; without this the reader sees EOF
	// at the first flush and silently truncates the batch. Writers that
	// don't support the control (test recorders) hold the whole body in
	// memory already, so ErrNotSupported is fine.
	if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		s.log.Warn("batch full-duplex unavailable", "err", err)
	}
	lines := 0
	for job := range order {
		<-job.done
		s.metrics.batchQueue.Add(-1)
		if ctx.Err() == nil && len(job.buf) > 0 {
			if _, err := w.Write(job.buf); err == nil {
				lines++
				// Flush whenever the pipeline is drained (interactive
				// clients see verdicts immediately) or every 64 lines
				// (bulk clients are not syscall-bound).
				if len(order) == 0 || lines&63 == 0 {
					rc.Flush()
				}
			}
		}
		select {
		case free <- job:
		default:
		}
	}
	wg.Wait()
	rc.Flush()
}

// readBatchLine returns the next newline-delimited line (without the
// terminator). Lines longer than max are consumed to their newline and
// reported as tooLong with a nil slice, so one oversized line costs its
// own error verdict, not the stream. spill is the reader-owned buffer for
// lines longer than the bufio window.
func readBatchLine(br *bufio.Reader, max int, spill *[]byte) (line []byte, tooLong bool, err error) {
	frag, err := br.ReadSlice('\n')
	if err == nil || err == io.EOF {
		line = trimEOL(frag)
		if len(line) > max {
			return nil, true, err
		}
		return line, false, err
	}
	if err != bufio.ErrBufferFull {
		return nil, false, err
	}
	// Long line: accumulate into spill until newline, EOF, or the cap.
	buf := append((*spill)[:0], frag...)
	for {
		frag, err = br.ReadSlice('\n')
		buf = append(buf, frag...)
		*spill = buf
		if err == nil || err == io.EOF {
			line = trimEOL(buf)
			if len(line) > max {
				return nil, true, err
			}
			return line, false, err
		}
		if err != bufio.ErrBufferFull {
			return nil, false, err
		}
		if len(buf) > max {
			// Over the cap with no newline yet: discard to end of line.
			for {
				_, err = br.ReadSlice('\n')
				if err == nil || err == io.EOF {
					return nil, true, err
				}
				if err != bufio.ErrBufferFull {
					return nil, false, err
				}
			}
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// processLine turns one input line into one rendered NDJSON output line in
// job.buf.
func (b *verifyRun) processLine(sc *verifyScratch, job *batchJob, maxLine int) {
	if b.ctx.Err() != nil {
		// Cancelled batch: resolve the job empty so the writer drains.
		job.buf = job.buf[:0]
		return
	}
	b.s.metrics.batchLines.Inc()
	status := http.StatusBadRequest
	if job.tooLong {
		job.buf = b.appendError(job.buf, job.seq, nil, fmt.Sprintf("line exceeds %d bytes", maxLine))
	} else {
		job.buf, status = b.verifyLine(sc, job.line, job.seq, job.buf)
	}
	if status != http.StatusOK {
		b.s.metrics.batchRejects.Inc()
	}
}
