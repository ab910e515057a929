(* Tests for the copy-on-write checkpoint store and fork lifecycle. *)
module Page = Dice_checkpoint.Page
module Store = Dice_checkpoint.Store
module Fork = Dice_checkpoint.Fork

let bytes_of n f = Bytes.init n (fun i -> Char.chr (f i land 0xFF))

(* ---- Page ---- *)

let test_page_split_sizes () =
  let b = bytes_of 10000 Fun.id in
  let pages = Page.split ~page_size:4096 b in
  Alcotest.(check int) "page count" 3 (List.length pages);
  Alcotest.(check (list int)) "sizes" [ 4096; 4096; 1808 ]
    (List.map (fun (id : Page.id) -> id.Page.len) pages)

let test_page_split_empty () =
  Alcotest.(check int) "no pages" 0 (List.length (Page.split ~page_size:4096 Bytes.empty))

let test_page_count () =
  Alcotest.(check int) "exact" 2 (Page.count ~page_size:100 200);
  Alcotest.(check int) "round up" 3 (Page.count ~page_size:100 201);
  Alcotest.(check int) "zero" 0 (Page.count ~page_size:100 0)

let test_page_id_content_based () =
  let a = Bytes.of_string "hello world" in
  let b = Bytes.of_string "hello world" in
  Alcotest.(check bool) "same content same id" true
    (Page.equal_id (Page.id_of a 0 11) (Page.id_of b 0 11));
  Bytes.set b 0 'H';
  Alcotest.(check bool) "differs" false (Page.equal_id (Page.id_of a 0 11) (Page.id_of b 0 11))

(* ---- Store ---- *)

let test_capture_restore_identity () =
  let st = Store.create ~page_size:64 () in
  let img = bytes_of 1000 (fun i -> i * 7) in
  let snap = Store.capture st img in
  Alcotest.(check bytes) "identity" img (Store.restore snap)

let test_dedup () =
  let st = Store.create ~page_size:64 () in
  let img = Bytes.make 640 'x' in
  let snap = Store.capture st img in
  (* ten identical pages stored once *)
  Alcotest.(check int) "snapshot pages" 10 (Store.snapshot_pages snap);
  Alcotest.(check int) "stored once" 1 (Store.stored_pages st)

let test_sharing_between_snapshots () =
  let st = Store.create ~page_size:64 () in
  let a = bytes_of 640 Fun.id in
  let b = Bytes.copy a in
  Bytes.set b 0 '\xFF';  (* dirty the first page only *)
  let sa = Store.capture st a and sb = Store.capture st b in
  Alcotest.(check int) "9 shared" 9 (Store.shared_pages sa sb);
  Alcotest.(check int) "1 unique" 1 (Store.unique_pages sb ~relative_to:sa);
  Alcotest.(check (float 1e-9)) "fraction" 0.1 (Store.unique_fraction sb ~relative_to:sa)

let test_refcount_eviction () =
  let st = Store.create ~page_size:64 () in
  let a = Store.capture st (Bytes.make 64 'a') in
  let b = Store.capture st (Bytes.make 64 'b') in
  Alcotest.(check int) "two pages" 2 (Store.stored_pages st);
  Store.release a;
  Alcotest.(check int) "one evicted" 1 (Store.stored_pages st);
  Store.release b;
  Alcotest.(check int) "empty" 0 (Store.stored_pages st)

let test_clone_shares () =
  let st = Store.create ~page_size:64 () in
  let a = Store.capture st (bytes_of 256 Fun.id) in
  let c = Store.clone a in
  Alcotest.(check int) "still 4 distinct pages" 4 (Store.stored_pages st);
  Store.release a;
  (* the clone keeps the pages alive *)
  Alcotest.(check int) "pages survive" 4 (Store.stored_pages st);
  Alcotest.(check bytes) "clone restores" (bytes_of 256 Fun.id) (Store.restore c);
  Store.release c;
  Alcotest.(check int) "all gone" 0 (Store.stored_pages st)

let test_double_release_rejected () =
  let st = Store.create ~page_size:64 () in
  let a = Store.capture st (Bytes.make 64 'a') in
  Store.release a;
  Alcotest.check_raises "double release" (Invalid_argument "Store.release: already released")
    (fun () -> Store.release a)

let test_use_after_release_rejected () =
  let st = Store.create ~page_size:64 () in
  let a = Store.capture st (Bytes.make 64 'a') in
  Store.release a;
  Alcotest.check_raises "restore after release"
    (Invalid_argument "Store.restore: snapshot released") (fun () -> ignore (Store.restore a))

let test_empty_image () =
  let st = Store.create ~page_size:64 () in
  let s = Store.capture st Bytes.empty in
  Alcotest.(check bytes) "restores empty" Bytes.empty (Store.restore s);
  Alcotest.(check (float 0.0)) "fraction 0" 0.0 (Store.unique_fraction s ~relative_to:s)

let test_live_snapshots () =
  let st = Store.create () in
  Alcotest.(check int) "none" 0 (Store.live_snapshots st);
  let a = Store.capture st (Bytes.make 10 'a') in
  let b = Store.clone a in
  Alcotest.(check int) "two" 2 (Store.live_snapshots st);
  Store.release a;
  Store.release b;
  Alcotest.(check int) "zero" 0 (Store.live_snapshots st)

(* ---- Fork ---- *)

let test_fork_lifecycle () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 1024 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  Alcotest.(check bytes) "checkpoint image" live (Fork.checkpoint_image cp);
  let clone = Fork.spawn cp in
  Alcotest.(check int) "one clone" 1 (Fork.live_clones mgr);
  Alcotest.(check bytes) "clone sees the checkpoint" live (Fork.image clone);
  (* the clone mutates one page *)
  let final = Bytes.copy live in
  Bytes.set final 0 '\xEE';
  let stats = Fork.finish clone ~final_parts:[ final ] in
  Alcotest.(check int) "pages" 16 stats.Fork.pages;
  Alcotest.(check int) "one unique" 1 stats.Fork.unique;
  Alcotest.(check int) "no clones left" 0 (Fork.live_clones mgr)

let test_fork_unchanged_clone () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 640 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  let clone = Fork.spawn cp in
  let stats = Fork.finish clone ~final_parts:[ live ] in
  Alcotest.(check int) "zero unique" 0 stats.Fork.unique;
  Alcotest.(check (float 0.0)) "zero extra" 0.0 stats.Fork.extra_fraction

let test_fork_grown_clone () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 640 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  let clone = Fork.spawn cp in
  (* the clone's image grows (exploration metadata): extra pages counted
     against the checkpoint's page count *)
  let stats = Fork.finish clone ~final_parts:[ live; Bytes.make 320 'm' ] in
  Alcotest.(check int) "five extra pages" 5 stats.Fork.unique;
  Alcotest.(check (float 1e-9)) "50% extra" 0.5 stats.Fork.extra_fraction

let test_fork_double_finish_rejected () =
  let mgr = Fork.create ~page_size:64 () in
  let cp = Fork.checkpoint mgr ~live_image:(Bytes.make 64 'a') in
  let clone = Fork.spawn cp in
  ignore (Fork.finish clone ~final_parts:[ Bytes.make 64 'a' ]);
  Alcotest.check_raises "double finish"
    (Invalid_argument "Fork.finish: clone already finished") (fun () ->
      ignore (Fork.finish clone ~final_parts:[ Bytes.make 64 'a' ]))

let test_checkpoint_stats_divergence () =
  let mgr = Fork.create ~page_size:64 () in
  let live = bytes_of 640 Fun.id in
  let cp = Fork.checkpoint mgr ~live_image:live in
  (* the live image moves on: 2 of 10 pages change *)
  let moved = Bytes.copy live in
  Bytes.set moved 0 '\xAA';
  Bytes.set moved 100 '\xBB';
  let unique, fraction = Fork.checkpoint_stats cp ~live_image:moved in
  Alcotest.(check int) "unique pages" 2 unique;
  Alcotest.(check (float 1e-9)) "fraction" 0.2 fraction

let prop_capture_restore =
  QCheck.Test.make ~name:"capture/restore identity" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 2000))
    (fun s ->
      let st = Store.create ~page_size:128 () in
      let img = Bytes.of_string s in
      let snap = Store.capture st img in
      let ok = Bytes.equal img (Store.restore snap) in
      Store.release snap;
      ok && Store.stored_pages st = 0)

(* Fork.finish compares pages in place; the reference is what it did
   before: capture the final image and count page multisets. Pages are
   drawn from a small pool (all-zero included) so equal pages recur at
   other positions, and patches copy one checkpoint page over another,
   zero a page, flip a byte, grow the image or cut it mid-page. *)
type patch =
  | Copy_page of int * int  (* page [dst] takes checkpoint page [src]'s bytes *)
  | Zero_page of int
  | Flip of int  (* one byte, anywhere *)
  | Flip_last of int  (* one of the last 8 bytes: a partial page's odd tail *)
  | Grow of int
  | Shrink of int

let prop_finish_matches_capture =
  let page_size = 32 in
  let pool =
    [| Bytes.make page_size '\000'; bytes_of page_size Fun.id; Bytes.make page_size 'x' |]
  in
  let gen =
    let open QCheck.Gen in
    let image =
      map2
        (fun picks extra ->
          Bytes.cat
            (Bytes.concat Bytes.empty (List.map (fun i -> pool.(i)) picks))
            (Bytes.make extra 'p'))
        (list_size (int_range 0 12) (int_bound 2))
        (int_bound (page_size - 1))
    in
    let patch =
      frequency
        [ (3, map2 (fun d s -> Copy_page (d, s)) (int_bound 13) (int_bound 13));
          (2, map (fun i -> Zero_page i) (int_bound 13));
          (3, map (fun i -> Flip i) (int_bound 500));
          (2, map (fun i -> Flip_last i) (int_bound 7));
          (1, map (fun n -> Grow n) (int_range 1 100));
          (1, map (fun n -> Shrink n) (int_range 1 100)) ]
    in
    pair image (list_size (int_range 0 6) patch)
  in
  let apply live img = function
    | Copy_page (dst, src) ->
      if (src + 1) * page_size <= Bytes.length live && (dst + 1) * page_size <= Bytes.length img
      then Bytes.blit live (src * page_size) img (dst * page_size) page_size;
      img
    | Zero_page i ->
      if (i + 1) * page_size <= Bytes.length img then
        Bytes.fill img (i * page_size) page_size '\000';
      img
    | Flip i ->
      if i < Bytes.length img then Bytes.set img i (Char.chr (Char.code (Bytes.get img i) lxor 1));
      img
    | Flip_last i ->
      let i = Bytes.length img - 1 - i in
      if i >= 0 then Bytes.set img i (Char.chr (Char.code (Bytes.get img i) lxor 1));
      img
    | Grow n -> Bytes.cat img (bytes_of n (fun i -> i * 7))
    | Shrink n -> Bytes.sub img 0 (max 0 (Bytes.length img - n))
  in
  QCheck.Test.make ~name:"Fork.finish \u{2261} capture-based accounting" ~count:500
    (QCheck.make gen) (fun (live, patches) ->
      let final = List.fold_left (apply live) (Bytes.copy live) patches in
      let mgr = Fork.create ~page_size () in
      let cp = Fork.checkpoint mgr ~live_image:live in
      let got = Fork.finish (Fork.spawn cp) ~final_parts:[ final ] in
      let st = Store.create ~page_size () in
      let c = Store.capture st live and f = Store.capture st final in
      let unique = Store.unique_pages f ~relative_to:c in
      let base = Store.snapshot_pages c in
      let want =
        { Fork.pages = Store.snapshot_pages f;
          unique;
          unique_fraction = Store.unique_fraction f ~relative_to:c;
          extra_fraction = (if base = 0 then 0.0 else float_of_int unique /. float_of_int base);
        }
      in
      got = want)

(* The explorer finishes a clone over its snapshot and its engine
   metadata without concatenating them: any split of an image into
   parts must give what the whole image gives. Snapshots are cut to a
   whole number of pages, emptied or left ragged, trailers run from
   empty to several pages, and some images are cut at random points
   into several parts, empty ones included. *)
let prop_finish_over_parts =
  let page_size = 32 in
  let ramp k n = bytes_of n (fun i -> i * k) in
  let gen =
    let open QCheck.Gen in
    let live = map (ramp 13) (int_bound 300) in
    let snapshot live =
      let n = Bytes.length live in
      frequency
        [ (3, return n);
          (2, return (n / page_size * page_size));
          (1, return 0);
          (2, int_bound n) ]
      >>= fun len ->
      map
        (fun flips ->
          let b = Bytes.sub live 0 len in
          List.iter (fun i -> if i < len then Bytes.set b i '\xEE') flips;
          b)
        (list_size (int_bound 3) (int_bound 300))
    in
    let trailer =
      frequency
        [ (2, return 0); (2, int_range 1 (page_size - 1)); (2, int_range page_size 100) ]
      >|= ramp 7
    in
    live >>= fun live ->
    triple (return live) (pair (snapshot live) trailer)
      (frequency [ (2, return None); (1, map Option.some (list_size (int_range 1 4) (int_bound 400))) ])
  in
  let print (live, (snap, trailer), cuts) =
    Printf.sprintf "live %d bytes, snapshot %d, trailer %d, cuts [%s]" (Bytes.length live)
      (Bytes.length snap) (Bytes.length trailer)
      (match cuts with
      | None -> "none"
      | Some l -> String.concat ";" (List.map string_of_int l))
  in
  QCheck.Test.make ~name:"Fork.finish over parts \u{2261} Fork.finish of their concatenation"
    ~count:500 (QCheck.make ~print gen) (fun (live, (snap, trailer), cuts) ->
      let whole = Bytes.cat snap trailer in
      let parts =
        match cuts with
        | None -> [ snap; trailer ]
        | Some cuts ->
          (* [whole] cut at each offset (clamped, so some parts are empty) *)
          let cuts = List.sort compare (List.map (min (Bytes.length whole)) cuts) in
          let parts, last =
            List.fold_left
              (fun (acc, from) c -> (Bytes.sub whole from (c - from) :: acc, c))
              ([], 0) cuts
          in
          List.rev (Bytes.sub whole last (Bytes.length whole - last) :: parts)
      in
      let cp = Fork.checkpoint (Fork.create ~page_size ()) ~live_image:live in
      Fork.finish (Fork.spawn cp) ~final_parts:parts
      = Fork.finish (Fork.spawn cp) ~final_parts:[ whole ])

let test_finish_from_two_domains () =
  (* explorer seeds finish clones of one checkpoint on separate
     domains while others capture into the same store; each result must
     be what a lone finish gives *)
  let page_size = 64 in
  let live = bytes_of (64 * page_size) Fun.id in
  let final k =
    let b = Bytes.copy live in
    Bytes.set b (k * 97 mod Bytes.length b) '\xEE';
    if k mod 3 = 0 then Bytes.cat b (Bytes.make (k * 5) 'm') else b
  in
  let finals = List.init 40 final in
  let expected =
    let mgr = Fork.create ~page_size () in
    let cp = Fork.checkpoint mgr ~live_image:live in
    List.map (fun f -> Fork.finish (Fork.spawn cp) ~final_parts:[ f ]) finals
  in
  let mgr = Fork.create ~page_size () in
  let cp = Fork.checkpoint mgr ~live_image:live in
  let worker offset () =
    List.filteri (fun i _ -> i mod 2 = offset) finals
    |> List.mapi (fun i f ->
           (* fresh pages grow the store's table under the readers *)
           let fresh = bytes_of (8 * page_size) (fun j -> (i * 131) + j + offset) in
           let other = Fork.checkpoint mgr ~live_image:fresh in
           let stats = Fork.finish (Fork.spawn cp) ~final_parts:[ f ] in
           Fork.drop_checkpoint other;
           stats)
  in
  let d0 = Domain.spawn (worker 0) and d1 = Domain.spawn (worker 1) in
  let r0 = Domain.join d0 and r1 = Domain.join d1 in
  let got = List.mapi (fun i _ -> List.nth (if i mod 2 = 0 then r0 else r1) (i / 2)) finals in
  Alcotest.(check bool) "same stats as one domain" true (got = expected);
  Alcotest.(check int) "every clone reclaimed" 0 (Fork.live_clones mgr)

let suite =
  [ ("page split sizes", `Quick, test_page_split_sizes);
    ("page split empty", `Quick, test_page_split_empty);
    ("page count", `Quick, test_page_count);
    ("page id content-based", `Quick, test_page_id_content_based);
    ("capture/restore identity", `Quick, test_capture_restore_identity);
    ("dedup", `Quick, test_dedup);
    ("sharing between snapshots", `Quick, test_sharing_between_snapshots);
    ("refcount eviction", `Quick, test_refcount_eviction);
    ("clone shares pages", `Quick, test_clone_shares);
    ("double release rejected", `Quick, test_double_release_rejected);
    ("use after release rejected", `Quick, test_use_after_release_rejected);
    ("empty image", `Quick, test_empty_image);
    ("live snapshots", `Quick, test_live_snapshots);
    ("fork lifecycle", `Quick, test_fork_lifecycle);
    ("fork unchanged clone", `Quick, test_fork_unchanged_clone);
    ("fork grown clone", `Quick, test_fork_grown_clone);
    ("fork double finish rejected", `Quick, test_fork_double_finish_rejected);
    ("checkpoint stats divergence", `Quick, test_checkpoint_stats_divergence);
    ("fork finish from two domains", `Quick, test_finish_from_two_domains);
    QCheck_alcotest.to_alcotest prop_capture_restore;
    QCheck_alcotest.to_alcotest prop_finish_matches_capture;
    QCheck_alcotest.to_alcotest prop_finish_over_parts
  ]
