package service

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/fairness"
	"repro/internal/privacy"
	"repro/internal/wire"
)

// FairnessRequest asks the fairness micro-service for a group-fairness
// report over already-computed predictions.
type FairnessRequest struct {
	Pred       []int     `json:"pred"`
	Truth      []int     `json:"truth"`
	Group      []int     `json:"group"`
	Positive   int       `json:"positive"`
	GroupNames [2]string `json:"groupNames"`
}

// FairnessService wraps the fairness metrics.
type FairnessService struct{ *base }

// NewFairnessService constructs the service.
func NewFairnessService() *FairnessService {
	s := &FairnessService{base: newBase("fairness")}
	s.handle("POST /fairness", wire.Handle(evaluateFairness))
	return s
}

func evaluateFairness(_ context.Context, req *FairnessRequest) (fairness.Report, error) {
	return fairness.Evaluate(req.Pred, req.Truth, req.Group, req.Positive, req.GroupNames)
}

// MembershipRequest asks the privacy micro-service to run the
// membership-inference attack against an inline model.
type MembershipRequest struct {
	Model      json.RawMessage `json:"model"`
	Members    TableJSON       `json:"members"`
	NonMembers TableJSON       `json:"nonMembers"`
}

// MembershipResponse extends the attack result with the normalized
// privacy score the sensor publishes.
type MembershipResponse struct {
	privacy.MembershipResult
	PrivacyScore float64 `json:"privacyScore"`
}

// PrivacyService wraps the privacy metrics.
type PrivacyService struct{ *base }

// NewPrivacyService constructs the service.
func NewPrivacyService() *PrivacyService {
	s := &PrivacyService{base: newBase("privacy")}
	s.handle("POST /membership", wire.Handle(s.inferMembership))
	return s
}

func (s *PrivacyService) inferMembership(_ context.Context, req *MembershipRequest) (resp MembershipResponse, err error) {
	model, err := s.decodeModel(req.Model)
	if err != nil {
		return resp, err
	}
	members, err := req.Members.toTable("members")
	if err != nil {
		return resp, err
	}
	nonMembers, err := req.NonMembers.toTable("nonMembers")
	if err != nil {
		return resp, err
	}
	res, err := privacy.MembershipInference(model, members, nonMembers)
	if err != nil {
		return resp, err
	}
	return MembershipResponse{MembershipResult: res, PrivacyScore: privacy.PrivacyScore(res.Advantage)}, nil
}

// Fairness requests a fairness report from the fairness service.
func (c *Client) Fairness(ctx context.Context, req FairnessRequest) (fairness.Report, error) {
	var rep fairness.Report
	err := c.do(ctx, http.MethodPost, "/fairness", req, &rep)
	return rep, err
}

// Membership requests a membership-inference report from the privacy
// service.
func (c *Client) Membership(ctx context.Context, req MembershipRequest) (MembershipResponse, error) {
	var resp MembershipResponse
	err := c.do(ctx, http.MethodPost, "/membership", req, &resp)
	return resp, err
}

var (
	_ http.Handler = (*FairnessService)(nil)
	_ http.Handler = (*PrivacyService)(nil)
)
