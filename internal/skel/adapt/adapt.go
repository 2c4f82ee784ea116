// Package adapt maps skeleton names onto engine runners — the single
// point where the service layer's skeleton-agnostic job model meets the
// concrete skeleton implementations. The service holds only engine.Runner
// values and engine types; which dispatch topology backs a job is decided
// here, from the job's declared skeleton and its per-skeleton parameters.
package adapt

import (
	"fmt"

	"grasp/internal/platform"
	"grasp/internal/sched"
	"grasp/internal/skel/dmap"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
	"grasp/internal/skel/pipeline"
)

// Skeleton names accepted by New (the empty string means Farm).
const (
	Farm     = "farm"
	DMap     = "dmap"
	Pipeline = "pipeline"
)

// Names lists the streaming skeletons a daemon can serve.
func Names() []string { return []string{Farm, Pipeline, DMap} }

// Known reports whether name (or "" for the default farm) is a servable
// skeleton.
func Known(name string) bool {
	switch name {
	case "", Farm, DMap, Pipeline:
		return true
	}
	return false
}

// Spec carries the per-skeleton structural parameters; the adaptive
// contract itself travels separately as engine.StreamOptions.
type Spec struct {
	// Skeleton selects the dispatch topology ("" = Farm).
	Skeleton string
	// Chunk is the farm's granularity policy (default sched.Single; the
	// service uses sched.Weighted so calibrated weights shift dispatch).
	Chunk sched.ChunkPolicy
	// Stages is the pipeline stage count.
	Stages int
	// StageTask derives the work pipeline stage si performs on a flowing
	// task (nil = run the task unchanged at every stage).
	StageTask func(stage int, t platform.Task) platform.Task
}

// New resolves a Spec to the skeleton's engine runner.
func New(sp Spec) (engine.Runner, error) {
	switch sp.Skeleton {
	case "", Farm:
		return farm.Stream(sp.Chunk), nil
	case DMap:
		return dmap.Stream, nil
	case Pipeline:
		if sp.Stages < 1 {
			return nil, fmt.Errorf("adapt: pipeline job needs at least 1 stage")
		}
		return pipeline.Stream(pipeline.StreamParams{Stages: sp.Stages, Apply: sp.StageTask}), nil
	default:
		return nil, fmt.Errorf("adapt: unknown skeleton %q (have %v)", sp.Skeleton, Names())
	}
}
