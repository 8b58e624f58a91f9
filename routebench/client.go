package main

import (
	"bytes"
	"net/http"
	"time"
)

// client is the benchmark's single closed-loop client: one request in
// flight at a time, at most one keep-alive connection per role.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends req and reads the whole answer into c.buf. The duration runs
// from handing the request to the transport to the last answer byte.
func (c *client) do(req *http.Request) (int, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

func (c *client) get(url string) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	return c.do(req)
}

func (c *client) post(url, contentType string, body []byte) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.do(req)
}

// body returns a copy of the last answer.
func (c *client) body() []byte { return append([]byte(nil), c.buf.Bytes()...) }

func (c *client) close() { c.hc.CloseIdleConnections() }
