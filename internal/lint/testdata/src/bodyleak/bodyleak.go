// Package bodyleak is spatial-lint golden-corpus input for the
// body-leak dataflow analyzer: every *http.Response acquired must have
// its Body closed on every path out of the function.
package bodyleak

import (
	"io"
	"net/http"
)

// leakOnSuccess closes nothing on the happy path.
func leakOnSuccess(url string) ([]byte, error) {
	resp, err := http.Get(url) // want "resp.Body is not closed on every path"
	if err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

// deferClosed is the canonical shape; nothing reported.
func deferClosed(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	return io.ReadAll(resp.Body)
}

// errorPathIsNil relies on the http.Client contract: on the err != nil
// edge resp is nil, so there is nothing to close there. Clean.
func errorPathIsNil(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	status := resp.StatusCode
	_ = resp.Body.Close()
	return status, nil
}

// nilCheckedProbe mirrors the gateway health prober: the explicit
// resp != nil guard closes exactly when there is a body. Clean.
func nilCheckedProbe(url string) bool {
	resp, err := http.Get(url)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		_ = resp.Body.Close()
	}
	return ok
}

// discarded drops the response entirely.
func discarded(url string) error {
	_, err := http.Get(url) // want "response discarded without closing its Body"
	return err
}

// branchLeak closes on one arm only; the 200 arm leaks.
func branchLeak(url string) (bool, error) {
	resp, err := http.Get(url) // want "resp.Body is not closed on every path"
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close()
		return false, nil
	}
	return true, nil
}

// handedOff returns the response whole; the caller owns the close. Clean.
func handedOff(url string) (*http.Response, error) {
	return http.Get(url)
}

// drain really consumes the response, closing its body.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// handedToDrain is clean: handing the response to a helper discharges it.
func handedToDrain(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// waived shows the suppression syntax for a hand-verified pattern.
func waived(url string) (int, error) {
	resp, err := http.Get(url) //lint:ignore body-leak closed by the package teardown list
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
