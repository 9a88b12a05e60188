package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"remapd/internal/nn"
	"remapd/internal/remap"
	"remapd/internal/tensor"
)

// This file is the traced run's span recorder and the forwarding wrappers
// that feed it. Every span is taken in this benchmark's own files, around a
// call into a public interface of the layer it charges: nn.Layer (installed
// over a network's layers), nn.Fabric (bound through SetFabric) and
// remap.Policy. The wrappers forward every call unchanged, so a traced run
// computes exactly what an untraced one does — which the traced runs check.

// spanKind names what a span timed.
type spanKind uint8

const (
	kCell        spanKind = iota // one training cell (trainer.Train)
	kConvFwd                     // Conv2D Forward/Infer
	kConvBwd                     // Conv2D Backward
	kLinearFwd                   // Linear Forward/Infer
	kLinearBwd                   // Linear Backward
	kOtherFwd                    // BN/ReLU/pool/flatten Forward/Infer
	kOtherBwd                    // BN/ReLU/pool/flatten Backward
	kArchFwd                     // Fabric.EffectiveForward (quantize+clamp refresh)
	kArchBwd                     // Fabric.EffectiveBackward
	kArchGrad                    // Fabric.TransformGradient
	kArchWritten                 // Fabric.WeightsWritten (after each optimizer step)
	kDeploy                      // Policy.Deploy
	kMaintain                    // Policy.Maintain
	kSubmit                      // serve.Server.Submit
	kFlush                       // serve.Server.Flush
	numKinds
)

var kindNames = [numKinds]string{
	"cell", "conv.fwd", "conv.bwd", "linear.fwd", "linear.bwd", "other.fwd", "other.bwd",
	"arch.fwd", "arch.bwd", "arch.grad", "arch.written", "remap.deploy", "remap.maintain",
	"serve.submit", "serve.flush",
}

// span is one timed call. Times are nanoseconds since the tracer's origin.
type span struct {
	kind       spanKind
	layer      int16 // network position for layer spans, -1 otherwise
	train      bool  // Forward(x, true): a training step, not evaluation
	parent     int32 // enclosing span, -1 for a root
	start, end int64
	child      int64 // summed duration of direct children
	flops      int64 // GEMM flops the call computed (conv/linear only)
	swaps      int   // Maintain's reported swaps
}

func (s *span) dur() int64  { return s.end - s.start }
func (s *span) self() int64 { return s.dur() - s.child }

// tracer records the spans of one goroutine's calls in memory. It is not
// safe for concurrent use: each training cell, and the serving path, gets
// its own.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int32
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) now() int64 {
	//lint:allow no-wall-clock traced run: span timestamps are the measurement
	return int64(time.Since(t.origin))
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(k spanKind, layer int16) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, layer: layer, parent: parent, start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (the innermost open one) and charges its duration
// to its parent's children.
func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if s.parent >= 0 {
		t.spans[s.parent].child += s.dur()
	}
}

// writeSpans writes every tracer's spans to path, one JSON object a line.
func writeSpans(path, group string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for ti, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"group":%q,"tracer":%d,"id":%d,"parent":%d,"name":%q,"layer":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				group, ti, i, s.parent, kindNames[s.kind], s.layer, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- nn.Layer wrappers ----

// tracedLayer forwards every nn.Layer call to the wrapped layer inside a
// span charged to the layer's kind.
type tracedLayer struct {
	inner    nn.Layer
	t        *tracer
	pos      int16
	fwd, bwd spanKind
	// flops returns the GEMM flops of a forward call on input x; the
	// backward pass computes twice as many (weight and input gradients).
	flops func(x *tensor.Tensor) int64
	lastF int64
}

func (l *tracedLayer) Name() string        { return l.inner.Name() }
func (l *tracedLayer) Params() []*nn.Param { return l.inner.Params() }

func (l *tracedLayer) forward(x *tensor.Tensor, train bool, infer bool) *tensor.Tensor {
	id := l.t.begin(l.fwd, l.pos)
	var y *tensor.Tensor
	if infer {
		y = nn.InferLayer(l.inner, x)
	} else {
		y = l.inner.Forward(x, train)
	}
	l.t.end(id)
	s := &l.t.spans[id]
	s.train = train
	if l.flops != nil {
		l.lastF = l.flops(x)
		s.flops = l.lastF
	}
	return y
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(x, train, false)
}

// Infer keeps the wrapped layer on its forward-only serving path.
func (l *tracedLayer) Infer(x *tensor.Tensor) *tensor.Tensor { return l.forward(x, false, true) }

func (l *tracedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	id := l.t.begin(l.bwd, l.pos)
	dx := l.inner.Backward(dy)
	l.t.end(id)
	l.t.spans[id].flops = 2 * l.lastF
	return dx
}

// fabricLayer is a tracedLayer over a layer whose MVMs run on the fabric:
// it stays a nn.FabricUser (so mapping still finds it) and interposes a
// traced fabric whenever a fabric is bound.
type fabricLayer struct {
	tracedLayer
	hook *fabricHook
}

func (l *fabricLayer) SetFabric(f nn.Fabric) {
	l.inner.(nn.FabricUser).SetFabric(l.hook.wrap(f))
}

// fabricHook owns one network's traced fabric. Binding a fabric through
// Network.SetFabric reaches the layers after the network's own Fabric field
// is set; the hook re-points that field too, so the optimizer's
// WeightsWritten calls are traced like the layers' calls.
type fabricHook struct {
	net *nn.Network
	t   *tracer
	tf  *tracedFabric
}

func (h *fabricHook) wrap(f nn.Fabric) nn.Fabric {
	if h.tf == nil || h.tf.inner != f {
		h.tf = &tracedFabric{inner: f, t: h.t}
	}
	h.net.Fabric = h.tf
	return h.tf
}

// tracedFabric forwards nn.Fabric calls inside arch spans.
type tracedFabric struct {
	inner nn.Fabric
	t     *tracer
}

func (f *tracedFabric) EffectiveForward(layer string, w *tensor.Tensor) *tensor.Tensor {
	id := f.t.begin(kArchFwd, -1)
	out := f.inner.EffectiveForward(layer, w)
	f.t.end(id)
	return out
}

func (f *tracedFabric) EffectiveBackward(layer string, w *tensor.Tensor) *tensor.Tensor {
	id := f.t.begin(kArchBwd, -1)
	out := f.inner.EffectiveBackward(layer, w)
	f.t.end(id)
	return out
}

func (f *tracedFabric) TransformGradient(layer string, grad *tensor.Tensor) {
	id := f.t.begin(kArchGrad, -1)
	f.inner.TransformGradient(layer, grad)
	f.t.end(id)
}

func (f *tracedFabric) WeightsWritten(layer string) {
	id := f.t.begin(kArchWritten, -1)
	f.inner.WeightsWritten(layer)
	f.t.end(id)
}

// instrument replaces net's layers with traced wrappers. Fabric-using
// layers stay fabric users; the network keeps its current fabric, now seen
// through the tracer. Composite layers are not supported (vgg11 has none).
func instrument(net *nn.Network, t *tracer) error {
	hook := &fabricHook{net: net, t: t}
	for i, l := range net.Layers {
		tl := tracedLayer{inner: l, t: t, pos: int16(i), fwd: kOtherFwd, bwd: kOtherBwd}
		switch v := l.(type) {
		case *nn.Conv2D:
			g := v.Geom
			tl.fwd, tl.bwd = kConvFwd, kConvBwd
			tl.flops = func(x *tensor.Tensor) int64 {
				return 2 * int64(x.Dim(0)) * int64(g.ColRows()) * int64(g.OutC) * int64(g.ColCols())
			}
		case *nn.Linear:
			in, out := v.In, v.Out
			tl.fwd, tl.bwd = kLinearFwd, kLinearBwd
			tl.flops = func(x *tensor.Tensor) int64 { return 2 * int64(x.Dim(0)) * int64(in) * int64(out) }
		case nn.MVMContainer:
			return fmt.Errorf("trace: composite layer %s is not supported", l.Name())
		}
		if _, ok := l.(nn.FabricUser); ok {
			net.Layers[i] = &fabricLayer{tracedLayer: tl, hook: hook}
		} else {
			wrapped := tl
			net.Layers[i] = &wrapped
		}
	}
	net.SetFabric(net.Fabric)
	return nil
}

// ---- remap.Policy wrapper ----

// tracedPolicy forwards remap.Policy calls inside remap spans.
type tracedPolicy struct {
	inner remap.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Deploy(ctx *remap.Context) {
	id := p.t.begin(kDeploy, -1)
	p.inner.Deploy(ctx)
	p.t.end(id)
}

func (p *tracedPolicy) Maintain(ctx *remap.Context) remap.Report {
	id := p.t.begin(kMaintain, -1)
	rep := p.inner.Maintain(ctx)
	p.t.end(id)
	p.t.spans[id].swaps = rep.Swaps
	return rep
}
