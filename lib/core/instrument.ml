(** Analysis instrumentation helpers (Sections 3.2 and 3.4).

    The lemma-level experiments need quantities that live outside any one
    policy: super-epoch counts derived from timestamp-update events, and
    convenient access to the counters policies report via [stats]. *)

(** Look up a counter in a policy's stats list (0 when absent). *)
let stat stats key =
  match List.assoc_opt key stats with Some value -> value | None -> 0

(** Epochs including the trailing incomplete ones (Section 3.2's
    [numEpochs]). *)
let num_epochs stats = stat stats "epochs"

let eligible_drops stats = stat stats "eligible_drops"
let ineligible_drops stats = stat stats "ineligible_drops"
let wraps stats = stat stats "wraps"

(** Incremental super-epoch state (Section 3.4): a super-epoch ends the
    moment at least [watermark] distinct colors have updated their
    timestamps since it started; the trailing partial super-epoch counts
    when nonempty. For Theorem 1 the watermark is [2m = n/4]. Fed one
    event at a time, the state is O(watermark) regardless of how many
    events have been tracked — unlike the full event log. *)
type tracker = {
  watermark : int;
  mutable seen : bool array; (* colors seen in the open super-epoch *)
  members : int array; (* the same colors, in first-seen order *)
  mutable count : int;
  mutable complete : int;
}

let tracker ~watermark =
  if watermark < 1 then invalid_arg "Instrument.tracker: watermark < 1";
  {
    watermark;
    seen = Array.make 16 false;
    members = Array.make watermark 0;
    count = 0;
    complete = 0;
  }

let track t ~color =
  if color >= Array.length t.seen then begin
    let seen = Array.make (max (color + 1) (2 * Array.length t.seen)) false in
    Array.blit t.seen 0 seen 0 (Array.length t.seen);
    t.seen <- seen
  end;
  if not t.seen.(color) then begin
    t.seen.(color) <- true;
    t.members.(t.count) <- color;
    t.count <- t.count + 1;
    if t.count >= t.watermark then begin
      t.complete <- t.complete + 1;
      for i = 0 to t.count - 1 do
        t.seen.(t.members.(i)) <- false
      done;
      t.count <- 0
    end
  end

let tracker_count t = t.complete + (if t.count > 0 then 1 else 0)

(* State accessors for policy serialization. *)
let tracker_complete t = t.complete

let tracker_seen t =
  List.sort Int.compare (List.init t.count (fun i -> t.members.(i)))

let tracker_restore t ~complete ~seen =
  t.complete <- complete;
  for i = 0 to t.count - 1 do
    t.seen.(t.members.(i)) <- false
  done;
  t.count <- 0;
  List.iter (fun color -> track t ~color) seen

(** Count super-epochs from a full chronological event log (the batch
    form of {!tracker}). *)
let super_epochs ~watermark events =
  if watermark < 1 then invalid_arg "Instrument.super_epochs: watermark < 1";
  let t = tracker ~watermark in
  List.iter (fun (_round, color) -> track t ~color) events;
  tracker_count t

(** The Lemma 3.3 bound: reconfiguration cost is at most
    [4 * numEpochs * delta]. *)
let lemma_3_3_bound ~delta stats = 4 * num_epochs stats * delta

(** The Lemma 3.4 bound: ineligible drop cost is at most
    [numEpochs * delta]. *)
let lemma_3_4_bound ~delta stats = num_epochs stats * delta
