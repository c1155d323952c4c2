package core

import (
	"context"
	"fmt"

	"tunio/internal/metrics"
	"tunio/internal/params"
	"tunio/internal/tuner"
)

// Session is the interactive tuning feature the paper proposes as future
// work (§VI): "an interactive session feature where a configuration can be
// refined over time across a series of runs". Each RefineBatch round resumes
// the pipeline from the best configuration found so far; the RL agents
// carry their online learning across rounds; the session accumulates one
// continuous tuning history for RoTI accounting.
type Session struct {
	Agent *TunIO
	Space []params.Parameter

	// Best is the best configuration found across all rounds (nil before
	// the first round: the next round starts from the library defaults).
	Best     *params.Assignment
	BestPerf float64

	// History is the concatenated tuning curve across rounds, with
	// cumulative time.
	History metrics.Curve

	rounds int
}

// NewSession starts a session with the given (typically offline-trained)
// agent over the parameter space.
func NewSession(agent *TunIO, space []params.Parameter) (*Session, error) {
	if agent == nil || agent.Stopper == nil || agent.Picker == nil {
		return nil, fmt.Errorf("core: session needs a complete agent")
	}
	if len(space) == 0 {
		return nil, fmt.Errorf("core: session needs a parameter space")
	}
	return &Session{Agent: agent, Space: space}, nil
}

// Rounds returns the number of completed RefineBatch rounds.
func (s *Session) Rounds() int { return s.rounds }

// RefineBatch runs one tuning round of at most maxIterations generations,
// resuming from the session's best configuration. The round's generations
// are handed to eval as batches (a tuner.Pool over a TraceEvaluator,
// memoized with tuner.Memo), and ctx cancels the round between
// evaluations. The round's curve is appended to the session history with
// time carried over; Best/BestPerf update if the round improved on them.
func (s *Session) RefineBatch(ctx context.Context, eval tuner.BatchEvaluator, popSize, maxIterations int, seed int64) (*tuner.Result, error) {
	s.Agent.Reset()
	res, err := tuner.RunBatch(ctx, tuner.Config{
		Space:         s.Space,
		PopSize:       popSize,
		MaxIterations: maxIterations,
		Seed:          seed + int64(s.rounds)*9973,
		Stopper:       s.Agent.Stopper,
		Picker:        s.Agent.Picker,
		StartFrom:     s.Best,
	}, eval)
	if err != nil {
		return nil, err
	}
	s.rounds++

	offset := s.History.TotalMinutes()
	prevBest := s.BestPerf
	for _, p := range res.Curve {
		bp := p.BestPerf
		if bp < prevBest {
			bp = prevBest // session-level best never regresses
		}
		s.History = append(s.History, metrics.Point{
			Iteration:   len(s.History),
			TimeMinutes: offset + p.TimeMinutes,
			IterPerf:    p.IterPerf,
			BestPerf:    bp,
		})
	}
	if res.BestPerf > s.BestPerf {
		s.BestPerf = res.BestPerf
		s.Best = res.Best
	}
	return res, nil
}
