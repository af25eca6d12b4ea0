package mobirep

import (
	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// The distributed protocol of section 4, re-exported: a stationary-
// computer Server over a versioned store and a mobile-computer Client with
// a local cache, connected by an in-memory or TCP link.

// Server is the stationary computer endpoint.
type Server = replica.Server

// Client is the mobile computer endpoint.
type Client = replica.Client

// Mode selects the allocation method a client/server pair runs.
type Mode = replica.Mode

// MeterSnapshot is a snapshot of one side's protocol traffic counters.
type MeterSnapshot = replica.MeterSnapshot

// SWMode returns the sliding-window protocol mode with window size k.
func SWMode(k int) Mode { return replica.SW(k) }

// Static1Mode returns the ST1 protocol mode (never allocate).
func Static1Mode() Mode { return replica.Static1() }

// Static2Mode returns the ST2 protocol mode (always keep a copy).
func Static2Mode() Mode { return replica.Static2() }

// Store is the stationary computer's versioned key-value database.
type Store = db.Store

// Item is one versioned value.
type Item = db.Item

// NewStore returns an in-memory store.
func NewStore() *Store { return db.NewStore() }

// OpenStore returns a store backed by an append-only log file, replaying
// existing records on open. Every open rewrites the log to one record per
// live key, so the log holds the live set plus the writes since the last
// start.
func OpenStore(path string) (*Store, error) { return db.Open(path) }

// Link carries protocol frames between the two computers.
type Link = transport.Link

// NewMemPair returns two connected in-memory links (synchronous,
// loss-free), suitable for tests and single-process experiments.
func NewMemPair() (Link, Link) { return transport.NewMemPair() }

// NewServer creates the SC endpoint over a store.
func NewServer(store *Store, mode Mode) (*Server, error) {
	return replica.NewServer(store, mode)
}

// NewClient creates the MC endpoint over a link.
func NewClient(link Link, mode Mode) (*Client, error) {
	return replica.NewClient(link, mode)
}
