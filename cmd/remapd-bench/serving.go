package main

import (
	"bytes"
	"fmt"

	"remapd/internal/dataset"
	"remapd/internal/experiments"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/remap"
	"remapd/internal/serve"
	"remapd/internal/tensor"
	"remapd/internal/trainer"
)

// Serving set-up shared by serve-wear and serve-http: a vgg11 checkpoint
// trained from the seed on the ideal fabric, then loaded onto simulated
// chips at remapd-serve's defaults.

const (
	servePoolImages = 512  // traffic draws from this many test images (remapd-serve -test)
	ckptTrainN      = 320  // checkpoint training images
	ckptEpochs      = 4    // checkpoint training epochs
	wearLife        = 4000 // Weibull characteristic life, remapd-serve -wear-life
	writesPerBatch  = 4    // remapd-serve -writes-per-batch
	trafficJitter   = 3    // remapd-serve -jitter
)

// servingScale is remapd-serve's model geometry (StandardScale at width
// 0.125, 16×16 images).
func servingScale() experiments.Scale {
	s := experiments.StandardScale()
	s.TrainN, s.TestN = ckptTrainN, servePoolImages
	return s
}

// checkpoint is a trained network serialised with nn.SaveWeights (BN
// running statistics included), plus what it scored when trained.
type checkpoint struct {
	weights  []byte
	trainAcc float64 // final test accuracy on the ideal fabric
	ds       *dataset.Dataset
}

// trainCheckpoint trains vgg11 on the ideal fabric from seed and
// serialises it.
func trainCheckpoint(seed uint64) (*checkpoint, error) {
	s := servingScale()
	ds := dataset.CIFAR10Like(s.TrainN, s.TestN, s.ImgSize, 77)
	net, err := experiments.BuildModel("vgg11", s, seed, 10)
	if err != nil {
		return nil, err
	}
	cfg := trainer.DefaultConfig()
	cfg.Epochs, cfg.BatchSize, cfg.LR, cfg.Seed = ckptEpochs, s.BatchSize, s.LR, seed
	res, err := trainer.Train(net, ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("train checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, net); err != nil {
		return nil, fmt.Errorf("save checkpoint: %w", err)
	}
	return &checkpoint{weights: buf.Bytes(), trainAcc: res.FinalTestAcc, ds: ds}, nil
}

// poolOptions selects the serving pool's configuration.
type poolOptions struct {
	chips int
	wear  bool // Weibull wear and online BIST (remapd-serve defaults)
	// wrapPolicy, when non-nil, wraps each replica's policy (tracing).
	wrapPolicy func(remap.Policy) remap.Policy
}

// servePool is one freshly built serving pool: its server and the
// networks bound to its chips.
type servePool struct {
	srv  *serve.Server
	nets []*nn.Network
}

// buildPool loads the checkpoint onto fresh chips with the manufacturing
// fault profile injected and Remap-D as the maintenance policy, exactly as
// remapd-serve does for the same seed. Building twice from the same inputs
// gives identical pools.
func buildPool(ck *checkpoint, seed uint64, o poolOptions) (*servePool, error) {
	s := servingScale()
	reg := experiments.DefaultRegime()
	cfg := serve.Config{
		BatchMax: 8, BatchWait: 16, // remapd-serve -batch-max, -batch-wait
		Threshold:      reg.RemapThreshold,
		WritesPerBatch: writesPerBatch,
		InC:            ck.ds.C, InH: ck.ds.H, InW: ck.ds.W,
	}
	if o.wear {
		cfg.BISTEvery = 256 // remapd-serve -bist-every
	} else {
		cfg.WritesPerBatch = 0
	}
	p := &servePool{}
	reps := make([]*serve.Replica, o.chips)
	for i := range reps {
		net, err := experiments.BuildModel("vgg11", s, seed, 10)
		if err != nil {
			return nil, err
		}
		if err := nn.LoadWeights(bytes.NewReader(ck.weights), net); err != nil {
			return nil, fmt.Errorf("load checkpoint: %w", err)
		}
		chip := experiments.NewChip(s)
		faultSeed := seed<<16 + uint64(i) + 1
		reg.Pre.Inject(chip.Xbars, tensor.NewRNG(faultSeed))
		pol, _, err := experiments.PolicyByName("remap-d", reg)
		if err != nil {
			return nil, err
		}
		if o.wrapPolicy != nil {
			pol = o.wrapPolicy(pol)
		}
		rc := serve.ReplicaConfig{Net: net, Chip: chip, Policy: pol, FaultSeed: faultSeed}
		if o.wear {
			em := fault.NewEnduranceModel()
			em.CharacteristicLife = wearLife
			rc.Endurance = em
		}
		if reps[i], err = serve.NewReplica(rc, cfg); err != nil {
			return nil, err
		}
		p.nets = append(p.nets, net)
	}
	srv, err := serve.New(cfg, reps)
	if err != nil {
		return nil, err
	}
	p.srv = srv
	return p, nil
}

// trafficRequests pre-generates n seeded requests, so the timed drive
// does nothing but serve them.
func trafficRequests(ds *dataset.Dataset, seed uint64, n int) []*serve.Request {
	tr := serve.NewTraffic(ds, seed, trafficJitter)
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		reqs[i] = tr.Next()
	}
	return reqs
}

// driveOutcome is what a drive served, measured from the requests
// themselves rather than from the server's own statistics.
type driveOutcome struct {
	correct  int // requests whose Class equals their Label
	acc      float64
	p99Ticks uint64
	classes  string // every request's class and completion tick, rendered
}

// outcomeOf summarises served requests: accuracy from each request's Class
// and Label, exact p99 of Completion − Arrival over every request.
func outcomeOf(reqs []*serve.Request) (driveOutcome, error) {
	var o driveOutcome
	ticks := make([]uint64, len(reqs))
	correct := 0
	var sig bytes.Buffer
	for i, r := range reqs {
		if r.Completion < r.Arrival || r.Completion == 0 {
			return o, fmt.Errorf("request %d not completed (arrival %d, completion %d)", i, r.Arrival, r.Completion)
		}
		ticks[i] = r.Completion - r.Arrival
		if r.Class == r.Label {
			correct++
		}
		fmt.Fprintf(&sig, "%d:%d ", r.Class, r.Completion)
	}
	p99, ok := exactTickQuantile(ticks, 0.99)
	if !ok {
		return o, fmt.Errorf("%d requests are too few for a p99", len(reqs))
	}
	o.correct = correct
	o.acc = float64(correct) / float64(len(reqs))
	o.p99Ticks = p99
	o.classes = sig.String()
	return o, nil
}
