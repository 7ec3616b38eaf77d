package analysis

import (
	"ixplens/internal/core/dissect"
	"ixplens/internal/core/webserver"
	"ixplens/internal/entity"
)

// Webserver returns the server-identification analyzer: the sharded
// webserver.Identifier behind the registry interface. Its product is
// the full identification result.
func Webserver() Analyzer { return webserverAnalyzer{} }

type webserverAnalyzer struct{}

func (webserverAnalyzer) Name() string    { return NameWebserver }
func (webserverAnalyzer) Version() uint16 { return 1 }

func (webserverAnalyzer) NewState(actx *Context, workers int) State {
	ident := webserver.NewSharded(workers, actx.Entities)
	ident.SetMetrics(actx.Ident)
	return &webserverState{ident: ident, crawler: actx.Crawler}
}

func (webserverAnalyzer) Decode(version uint16, payload []byte) (Product, error) {
	res, err := DecodeResult(version, payload)
	if err != nil {
		return nil, err
	}
	return &WebserverProduct{Res: res}, nil
}

type webserverState struct {
	ident   *webserver.Identifier
	crawler webserver.CertCrawler
}

func (s *webserverState) Observe(worker int, rec *dissect.Record, src, dst entity.ID, seq uint64) {
	s.ident.ObserveIDs(worker, rec, src, dst, seq)
}

func (s *webserverState) Finish(isoWeek int) (Product, error) {
	return &WebserverProduct{Res: s.ident.Identify(isoWeek, s.crawler)}, nil
}

// WebserverProduct wraps the identification result. EstLoss is not part
// of the per-record aggregation — the pipeline stamps it after Finish,
// before the product is encoded.
type WebserverProduct struct {
	Res *webserver.Result
}

// AppendEncode appends the deterministic result encoding.
func (p *WebserverProduct) AppendEncode(dst []byte) ([]byte, error) {
	return AppendResult(dst, p.Res)
}
