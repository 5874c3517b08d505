package gridftp

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/obs"
)

// Session set-up commands are pipelined: the client writes a batch back to
// back and then reads one final reply per command, in order, so installing
// a trace context, a marker cadence, a task label and a DCSC context costs
// one round trip instead of four. Every setter below is a one-command batch
// of the same path, so reply handling exists once.

// pipelined is one command of a batch: its wire form and done, which
// interprets the command's final reply. done returns the command's error
// (nil for a reply the command accepts or tolerates) and applies any
// client-side state change only once the reply confirms it.
type pipelined struct {
	name, params string
	done         func(ftp.Reply) error
}

// pipeline sends cmds in one flush and hands each its own final reply. A
// refused command does not shift the replies of the others: all of them
// are read before pipeline returns. The error is the first failed
// command's in batch order; a control-channel failure fails every command
// not yet answered.
func (c *Client) pipeline(cmds ...pipelined) error {
	wire := make([]ftp.Command, len(cmds))
	for i, p := range cmds {
		c.countCommand(p.name)
		wire[i] = ftp.Command{Name: p.name, Params: p.params}
	}
	if err := c.ctrl.WriteCommands(wire...); err != nil {
		return err
	}
	var first error
	for _, p := range cmds {
		r, err := c.ctrl.ReadFinalReply(nil)
		if err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		if err := p.done(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// onOK accepts only 200 and then runs apply.
func onOK(apply func()) func(ftp.Reply) error {
	return func(r ftp.Reply) error {
		if err := r.Want(ftp.CodeOK); err != nil {
			return err
		}
		apply()
		return nil
	}
}

// traceCmd is SITE TRACE. A server without the TRACE feature answers 500
// (unknown SITE subcommand); that is "not joined", not an error.
func traceCmd(sc obs.SpanContext, joined *bool) pipelined {
	return pipelined{"SITE", "TRACE " + obs.Inject(sc), func(r ftp.Reply) error {
		if err := r.Want(ftp.CodeOK, ftp.CodeSyntaxError); err != nil {
			return err
		}
		*joined = r.Code == ftp.CodeOK
		return nil
	}}
}

// markersCmd is OPTS RETR Markers=<ms>.
func (c *Client) markersCmd(interval time.Duration) pipelined {
	ms := int(interval / time.Millisecond)
	return pipelined{"OPTS", fmt.Sprintf("RETR Markers=%d;", ms),
		onOK(func() { c.spec.MarkerInterval = interval })}
}

// taskCmd is SITE TASK. A server without the extension answers 500,
// which degrades to local-only labeling rather than an error.
func (c *Client) taskCmd(label string) pipelined {
	return pipelined{"SITE", "TASK " + label, func(r ftp.Reply) error {
		if err := r.Want(ftp.CodeOK, ftp.CodeSyntaxError); err != nil {
			return err
		}
		c.task = label
		return nil
	}}
}

// dcscCmd is DCSC P <blob>. The server flushes its channel pools on it,
// so the client resets its own data state, but only after the 200: a
// refused DCSC changes nothing.
func (c *Client) dcscCmd(cred *gsi.Credential) (pipelined, error) {
	blob, err := EncodeDCSCBlob(cred)
	if err != nil {
		return pipelined{}, err
	}
	return pipelined{"DCSC", "P " + blob, onOK(c.reset)}, nil
}

// SessionSetup is what a client installs on a fresh session after
// delegation. Zero fields send nothing.
type SessionSetup struct {
	// Trace, when valid, binds the server's transfer spans to the
	// caller's trace (SITE TRACE).
	Trace obs.SpanContext
	// MarkerInterval, when non-zero, sets the restart and performance
	// marker cadence (OPTS RETR Markers=).
	MarkerInterval time.Duration
	// Task, when non-empty, labels the session's transfers in stream
	// telemetry (SITE TASK).
	Task string
	// DCSC, when non-nil, installs a data channel security context
	// (DCSC P).
	DCSC *gsi.Credential
}

// Configure installs s in one pipelined round trip, in the order SITE
// TRACE, OPTS RETR Markers, SITE TASK, DCSC P. It reports whether the
// server joined the trace; the error is the first refused command's.
func (c *Client) Configure(s SessionSetup) (joined bool, err error) {
	var cmds []pipelined
	if s.Trace.Valid() {
		cmds = append(cmds, traceCmd(s.Trace, &joined))
	}
	if s.MarkerInterval != 0 {
		cmds = append(cmds, c.markersCmd(s.MarkerInterval))
	}
	if s.Task != "" {
		cmds = append(cmds, c.taskCmd(s.Task))
	}
	if s.DCSC != nil {
		dcsc, err := c.dcscCmd(s.DCSC)
		if err != nil {
			return false, err
		}
		cmds = append(cmds, dcsc)
	}
	err = c.pipeline(cmds...)
	return joined, err
}

// PropagateTrace binds the server session to sc via SITE TRACE, so the
// server's subsequent transfer spans join the caller's trace. It returns
// joined=false with no error when sc is invalid or the server lacks the
// TRACE feature — propagation degrades to the server rooting its spans
// locally, never to a protocol error.
func (c *Client) PropagateTrace(sc obs.SpanContext) (joined bool, err error) {
	return c.Configure(SessionSetup{Trace: sc})
}

// SetMarkerInterval asks the receiving server to emit restart markers
// every interval (rounded to milliseconds; 0 restores the server's
// default).
func (c *Client) SetMarkerInterval(interval time.Duration) error {
	return c.pipeline(c.markersCmd(interval))
}

// SetTask labels this session's transfers in the stream-telemetry plane,
// both locally and — via SITE TASK — on the server, so the per-stream
// series of both ends of a transfer share one task prefix. An empty label
// clears it. A server without the extension replies 500; that degrades to
// local-only labeling rather than an error.
func (c *Client) SetTask(label string) error {
	return c.pipeline(c.taskCmd(label))
}

// SendDCSC installs a data channel security context on the server (§V):
// the server will both present and accept the given credential on its
// data channels. Works against the single DCSC-capable endpoint of a
// transfer even when the other endpoint is a legacy server.
func (c *Client) SendDCSC(cred *gsi.Credential) error {
	cmd, err := c.dcscCmd(cred)
	if err != nil {
		return err
	}
	return c.pipeline(cmd)
}

// ResetDCSC reverts the server's data channel security context ("DCSC D").
func (c *Client) ResetDCSC() error {
	return c.pipeline(pipelined{"DCSC", "D", onOK(c.reset)})
}
